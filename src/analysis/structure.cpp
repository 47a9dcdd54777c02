#include "analysis/structure.h"

#include <algorithm>

#include "parser/parser.h"

namespace polaris {

namespace {

/// Adds every scalar symbol read by `e` to `out`; array element reads add
/// the base symbol as well (a use of the array).
void collect_uses(const Expression& e, SymbolSet& out) {
  walk(e, [&](const Expression& node) {
    if (node.kind() == ExprKind::VarRef)
      out.insert(static_cast<const VarRef&>(node).symbol());
    else if (node.kind() == ExprKind::ArrayRef)
      out.insert(static_cast<const ArrayRef&>(node).symbol());
  });
}

/// Structured region abstract walker.  Computes, in one pass over
/// [first, last]:
///   must_def  — scalars assigned on all paths
///   may_def   — symbols possibly written
///   exposed   — scalar uses not dominated by a prior region definition
struct FlowState {
  SymbolSet must_def;
  SymbolSet may_def;
  SymbolSet exposed;
  bool irregular = false;

  void use(Symbol* s) {
    if (!must_def.count(s)) exposed.insert(s);
  }
  void use_expr(const Expression& e) {
    SymbolSet syms;
    collect_uses(e, syms);
    for (Symbol* s : syms) use(s);
  }
  void merge_branches(const std::vector<FlowState>& arms, bool exhaustive) {
    // may/exposed union; must intersect (only if an else arm exists).
    for (const FlowState& a : arms) {
      may_def.insert(a.may_def.begin(), a.may_def.end());
      for (Symbol* s : a.exposed) use(s);
      irregular = irregular || a.irregular;
    }
    if (exhaustive && !arms.empty()) {
      SymbolSet common = arms[0].must_def;
      for (size_t i = 1; i < arms.size(); ++i) {
        SymbolSet next;
        std::set_intersection(common.begin(), common.end(),
                              arms[i].must_def.begin(),
                              arms[i].must_def.end(),
                              std::inserter(next, next.begin()));
        common = std::move(next);
      }
      must_def.insert(common.begin(), common.end());
    }
  }
};

/// Walks [first, last] inclusive; returns the combined state.  `first`
/// through `last` must be a well-formed block.
FlowState walk_region(Statement* first, Statement* last);

/// Walks statements from `s` up to (but not including) `stop`; returns the
/// state and leaves *next pointing at `stop`.
/// True if some GOTO in the statement's list targets this statement's
/// label.  A label alone (e.g. a classic DO terminator) is harmless.
bool is_jump_target(const Statement* s) {
  if (s->label() == 0 || s->list() == nullptr) return false;
  for (Statement* t : *s->list())
    if (t->kind() == StmtKind::Goto &&
        static_cast<const GotoStmt*>(t)->target() == s->label())
      return true;
  return false;
}

FlowState walk_until(Statement*& s, Statement* stop) {
  FlowState st;
  while (s != stop) {
    p_assert(s != nullptr);
    if (is_jump_target(s)) st.irregular = true;
    switch (s->kind()) {
      case StmtKind::Assign: {
        auto* a = static_cast<AssignStmt*>(s);
        st.use_expr(a->rhs());
        if (a->lhs().kind() == ExprKind::ArrayRef) {
          // Subscripts are uses; the array is may-defined.
          for (const auto& sub :
               static_cast<const ArrayRef&>(a->lhs()).subscripts())
            st.use_expr(*sub);
          st.may_def.insert(a->target());
        } else {
          st.may_def.insert(a->target());
          st.must_def.insert(a->target());
        }
        s = s->next();
        break;
      }
      case StmtKind::Do: {
        auto* d = static_cast<DoStmt*>(s);
        st.use_expr(d->init());
        st.use_expr(d->limit());
        st.use_expr(d->step());
        st.may_def.insert(d->index());
        st.must_def.insert(d->index());  // index assigned even if 0 trips
        // Loop body may execute zero times: defs are may, uses exposed.
        Statement* body_first = d->next();
        FlowState body;
        if (body_first != d->follow()) {
          Statement* cur = body_first;
          body = walk_until(cur, d->follow());
        }
        st.may_def.insert(body.may_def.begin(), body.may_def.end());
        for (Symbol* sym : body.exposed) st.use(sym);
        st.irregular = st.irregular || body.irregular;
        s = d->follow()->next();
        break;
      }
      case StmtKind::If: {
        auto* ifs = static_cast<IfStmt*>(s);
        std::vector<FlowState> arms;
        bool has_else = false;
        Statement* arm = ifs;
        while (arm != ifs->end()) {
          ExprPtr* cond_slot = nullptr;
          if (arm->kind() == StmtKind::If)
            cond_slot = &static_cast<IfStmt*>(arm)->cond_slot();
          else if (arm->kind() == StmtKind::ElseIf)
            cond_slot = &static_cast<ElseIfStmt*>(arm)->cond_slot();
          else
            has_else = true;
          if (cond_slot) st.use_expr(**cond_slot);

          Statement* next_arm =
              arm->kind() == StmtKind::If
                  ? static_cast<IfStmt*>(arm)->next_arm()
                  : (arm->kind() == StmtKind::ElseIf
                         ? static_cast<ElseIfStmt*>(arm)->next_arm()
                         : static_cast<Statement*>(ifs->end()));
          Statement* cur = arm->next();
          arms.push_back(walk_until(cur, next_arm));
          arm = next_arm;
        }
        st.merge_branches(arms, has_else);
        s = ifs->end()->next();
        break;
      }
      case StmtKind::Call: {
        auto* c = static_cast<CallStmt*>(s);
        for (const ExprPtr& arg : c->args()) {
          st.use_expr(*arg);
          // Any symbol passed (by reference) may be modified.
          SymbolSet syms;
          collect_uses(*arg, syms);
          st.may_def.insert(syms.begin(), syms.end());
        }
        s = s->next();
        break;
      }
      case StmtKind::Print: {
        for (const ExprPtr& e : s->expressions()) st.use_expr(*e);
        s = s->next();
        break;
      }
      case StmtKind::Goto:
      case StmtKind::Return:
      case StmtKind::Stop:
        st.irregular = true;
        s = s->next();
        break;
      case StmtKind::EndDo:
      case StmtKind::ElseIf:
      case StmtKind::Else:
      case StmtKind::EndIf:
        // Structure markers reached only when the caller's region boundary
        // is inside a construct; treat as irregular and stop descending.
        st.irregular = true;
        s = s->next();
        break;
      case StmtKind::Continue:
      case StmtKind::Comment:
        s = s->next();
        break;
    }
  }
  return st;
}

FlowState walk_region(Statement* first, Statement* last) {
  if (first == nullptr) return {};
  Statement* cur = first;
  Statement* stop = last ? last->next() : nullptr;
  FlowState st = walk_until(cur, stop);
  return st;
}

bool expr_has_user_call(const Expression& e) {
  return e.contains([](const Expression& n) {
    return n.kind() == ExprKind::FuncCall &&
           !is_intrinsic_name(static_cast<const FuncCall&>(n).name());
  });
}

}  // namespace

SymbolSet must_defined_scalars(Statement* first, Statement* last) {
  return walk_region(first, last).must_def;
}

SymbolSet may_defined_symbols(Statement* first, Statement* last) {
  return walk_region(first, last).may_def;
}

SymbolSet upward_exposed_scalars(Statement* first, Statement* last) {
  return walk_region(first, last).exposed;
}

bool has_irregular_flow(Statement* first, Statement* last) {
  Statement* stop = last ? last->next() : nullptr;
  for (Statement* s = first; s != stop; s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Goto || s->kind() == StmtKind::Return ||
        s->kind() == StmtKind::Stop || is_jump_target(s))
      return true;
  }
  return false;
}

bool is_loop_invariant(const Expression& e, DoStmt* loop) {
  return is_loop_invariant(e, loop,
                           may_defined_symbols(loop, loop->follow()));
}

bool is_loop_invariant(const Expression& e, DoStmt* loop,
                       const SymbolSet& loop_may_defined) {
  (void)loop;
  if (expr_has_user_call(e)) return false;
  SymbolSet used;
  collect_uses(e, used);
  for (Symbol* s : used)
    if (loop_may_defined.count(s)) return false;
  return true;
}

bool is_live_after(DoStmt* loop, Symbol* s) {
  Statement* cur = loop->follow()->next();
  // Conservative scan to the end of the unit's statement list.
  while (cur != nullptr) {
    if (cur->kind() == StmtKind::Goto) return true;  // flow unknown
    if (cur->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(cur);
      // Uses: the rhs, plus subscripts when the target is an array element
      // (a scalar lhs is a kill, not a use).
      SymbolSet used;
      collect_uses(a->rhs(), used);
      if (a->lhs().kind() == ExprKind::ArrayRef) {
        for (const auto& sub :
             static_cast<const ArrayRef&>(a->lhs()).subscripts())
          collect_uses(*sub, used);
      }
      if (used.count(s)) return true;
      if (a->lhs().kind() == ExprKind::VarRef && a->target() == s)
        return false;  // killed
    } else {
      for (const ExprPtr& e : cur->expressions()) {
        SymbolSet used;
        collect_uses(*e, used);
        if (used.count(s)) return true;
      }
      if (cur->kind() == StmtKind::Do &&
          static_cast<DoStmt*>(cur)->index() == s)
        return false;  // killed by the index assignment (bounds already
                       // checked above)
    }
    cur = cur->next();
  }
  return false;
}

std::vector<DoStmt*> enclosing_loops(Statement* s, DoStmt* stop) {
  std::vector<DoStmt*> out;
  for (DoStmt* d = s->outer(); d != nullptr; d = d->outer()) {
    out.push_back(d);
    if (d == stop) break;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace polaris
