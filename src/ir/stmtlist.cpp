#include "ir/stmtlist.h"

namespace polaris {

StmtList::~StmtList() {
  // Unwind the unique_ptr chain iteratively to avoid deep recursion on
  // long programs.
  std::unique_ptr<Statement> cur = std::move(head_);
  while (cur) cur = std::move(cur->next_);
}

Statement* StmtList::push_back(StmtPtr s) {
  p_assert(s != nullptr);
  p_assert_msg(s->list_ == nullptr, "statement already belongs to a list");
  Statement* raw = s.get();
  if (!head_) {
    head_ = std::move(s);
  } else {
    tail_->next_ = std::move(s);
    raw->prev_ = tail_;
  }
  tail_ = raw;
  raw->list_ = this;
  ++size_;
  revalidate();
  return raw;
}

void StmtList::splice_back(std::vector<StmtPtr> fragment) {
  for (auto& s : fragment) {
    p_assert(s != nullptr && s->list_ == nullptr);
    Statement* raw = s.get();
    if (!head_) {
      head_ = std::move(s);
    } else {
      tail_->next_ = std::move(s);
      raw->prev_ = tail_;
    }
    tail_ = raw;
    raw->list_ = this;
    ++size_;
  }
  revalidate();
}

void StmtList::splice_before(Statement* pos, std::vector<StmtPtr> fragment) {
  p_assert(pos != nullptr && pos->list_ == this);
  for (auto& s : fragment) {
    p_assert(s != nullptr && s->list_ == nullptr);
    Statement* raw = s.get();
    Statement* before = pos->prev_;
    if (before == nullptr) {
      s->next_ = std::move(head_);
      head_ = std::move(s);
    } else {
      s->next_ = std::move(before->next_);
      before->next_ = std::move(s);
      raw->prev_ = before;
    }
    pos->prev_ = raw;
    raw->list_ = this;
    ++size_;
  }
  revalidate();
}

void StmtList::splice_after(Statement* pos, std::vector<StmtPtr> fragment) {
  p_assert(pos != nullptr && pos->list_ == this);
  if (pos == tail_) {
    splice_back(std::move(fragment));
  } else {
    splice_before(pos->next(), std::move(fragment));
  }
}

void StmtList::remove(Statement* s) {
  p_assert(s != nullptr && s->list_ == this);
  Statement* before = s->prev_;
  StmtPtr& link = before ? before->next_ : head_;
  StmtPtr doomed = std::move(link);  // destroyed on return
  link = std::move(doomed->next_);
  if (link)
    link->prev_ = before;
  else
    tail_ = before;
  --size_;
  revalidate();
}

std::vector<StmtPtr> StmtList::clone_range(Statement* first,
                                           Statement* last) const {
  p_assert(first != nullptr && last != nullptr);
  p_assert(first->list_ == this && last->list_ == this);
  std::vector<StmtPtr> out;
  for (Statement* s = first;; s = s->next()) {
    p_assert_msg(s != nullptr, "range end does not follow range start");
    out.push_back(s->clone());
    if (s == last) break;
  }
  return out;
}

void StmtList::revalidate() {
  labels_.clear();
  std::vector<DoStmt*> do_stack;
  // If-arm tracking: stack of the most recent open arm (If/ElseIf/Else).
  std::vector<Statement*> if_stack;
  Statement* prev_expected = nullptr;
  for (Statement* s = head_.get(); s != nullptr; s = s->next()) {
    p_assert_msg(s->prev_ == prev_expected, "corrupt prev link");
    p_assert_msg(s->list_ == this, "statement in list has foreign owner");
    prev_expected = s;

    s->outer_ = do_stack.empty() ? nullptr : do_stack.back();

    if (s->label() != 0) {
      p_assert_msg(labels_.find(s->label()) == labels_.end(),
                   "duplicate statement label " + std::to_string(s->label()));
      labels_[s->label()] = s;
    }

    switch (s->kind()) {
      case StmtKind::Do:
        do_stack.push_back(static_cast<DoStmt*>(s));
        break;
      case StmtKind::EndDo: {
        p_assert_msg(!do_stack.empty(), "END DO without matching DO");
        DoStmt* d = do_stack.back();
        do_stack.pop_back();
        d->follow_ = static_cast<EndDoStmt*>(s);
        static_cast<EndDoStmt*>(s)->header_ = d;
        // the ENDDO itself belongs to the enclosing loop, not to `d`
        s->outer_ = do_stack.empty() ? nullptr : do_stack.back();
        break;
      }
      case StmtKind::If:
        if_stack.push_back(s);
        break;
      case StmtKind::ElseIf: {
        p_assert_msg(!if_stack.empty(), "ELSE IF without matching IF");
        Statement* arm = if_stack.back();
        p_assert_msg(arm->kind() == StmtKind::If ||
                         arm->kind() == StmtKind::ElseIf,
                     "ELSE IF after ELSE");
        if (arm->kind() == StmtKind::If)
          static_cast<IfStmt*>(arm)->next_arm_ = s;
        else
          static_cast<ElseIfStmt*>(arm)->next_arm_ = s;
        if_stack.back() = s;
        break;
      }
      case StmtKind::Else: {
        p_assert_msg(!if_stack.empty(), "ELSE without matching IF");
        Statement* arm = if_stack.back();
        p_assert_msg(arm->kind() == StmtKind::If ||
                         arm->kind() == StmtKind::ElseIf,
                     "duplicate ELSE");
        if (arm->kind() == StmtKind::If)
          static_cast<IfStmt*>(arm)->next_arm_ = s;
        else
          static_cast<ElseIfStmt*>(arm)->next_arm_ = s;
        if_stack.back() = s;
        break;
      }
      case StmtKind::EndIf: {
        p_assert_msg(!if_stack.empty(), "END IF without matching IF");
        Statement* arm = if_stack.back();
        if_stack.pop_back();
        auto* endif = static_cast<EndIfStmt*>(s);
        // Walk back along the recorded arm to set end pointers; we only
        // have the last arm here, so propagate end_ through the chain by
        // re-walking from the IF.  The chain links were set as arms were
        // seen; find the IF by walking arm->prev? Instead store end on the
        // last arm and fix the chain below.
        switch (arm->kind()) {
          case StmtKind::If: {
            auto* i = static_cast<IfStmt*>(arm);
            i->end_ = endif;
            if (i->next_arm_ == nullptr) i->next_arm_ = endif;
            break;
          }
          case StmtKind::ElseIf: {
            auto* e = static_cast<ElseIfStmt*>(arm);
            e->end_ = endif;
            if (e->next_arm_ == nullptr) e->next_arm_ = endif;
            break;
          }
          case StmtKind::Else:
            static_cast<ElseStmt*>(arm)->end_ = endif;
            break;
          default:
            p_unreachable("bad arm kind");
        }
        break;
      }
      default:
        break;
    }
  }
  p_assert_msg(do_stack.empty(), "DO without matching END DO");
  p_assert_msg(if_stack.empty(), "IF without matching END IF");
  p_assert(tail_ == prev_expected);

  // Second sweep: propagate end_ pointers through full if chains (an
  // IF..ELSEIF..ELSE..ENDIF chain sets end_ only on its last arm above).
  std::vector<EndIfStmt*> end_stack;
  for (Statement* s = tail_; s != nullptr; s = s->prev()) {
    switch (s->kind()) {
      case StmtKind::EndIf:
        end_stack.push_back(static_cast<EndIfStmt*>(s));
        break;
      case StmtKind::If: {
        p_assert(!end_stack.empty());
        static_cast<IfStmt*>(s)->end_ = end_stack.back();
        end_stack.pop_back();
        break;
      }
      case StmtKind::ElseIf:
        p_assert(!end_stack.empty());
        static_cast<ElseIfStmt*>(s)->end_ = end_stack.back();
        break;
      case StmtKind::Else:
        p_assert(!end_stack.empty());
        static_cast<ElseStmt*>(s)->end_ = end_stack.back();
        break;
      default:
        break;
    }
  }
}

Statement* StmtList::find_label(int l) const {
  auto it = labels_.find(l);
  return it == labels_.end() ? nullptr : it->second;
}

std::vector<DoStmt*> StmtList::loops() const {
  std::vector<DoStmt*> out;
  for (Statement* s : *this)
    if (s->kind() == StmtKind::Do) out.push_back(static_cast<DoStmt*>(s));
  return out;
}

std::vector<DoStmt*> StmtList::loops_in(DoStmt* outer_do) const {
  p_assert(outer_do != nullptr && outer_do->list() == this);
  std::vector<DoStmt*> out;
  for (Statement* s = outer_do->next(); s != outer_do->follow();
       s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Do) out.push_back(static_cast<DoStmt*>(s));
  }
  return out;
}

int StmtList::depth(const Statement* s) const {
  int d = 0;
  for (DoStmt* o = s->outer(); o != nullptr; o = o->outer()) ++d;
  return d;
}

std::vector<Statement*> StmtList::body(DoStmt* d) const {
  p_assert(d != nullptr && d->list() == this && d->follow() != nullptr);
  std::vector<Statement*> out;
  for (Statement* s = d->next(); s != d->follow(); s = s->next()) {
    p_assert(s != nullptr);
    out.push_back(s);
  }
  return out;
}

}  // namespace polaris
