// StmtList: the consistency-enforcing statement container.
//
// The paper (Section 2): "To maintain complete control of consistency inside
// the StmtList class, the manipulation of statements or lists of statements
// is restricted by checks during the execution of Polaris.  For example, the
// block to be processed must be entirely well-formed with regard to
// multi-block statements such as do loops and block-if statements."
//
// StmtList owns its statements through an intrusive unique_ptr chain.
// Structural edits (push / remove / splice) trigger
// revalidate(), which re-derives all cross links (do->enddo, if-arm chain,
// enclosing-loop `outer` pointers, the label map) and p_asserts proper
// nesting.  Code that needs to assemble a temporarily ill-formed fragment
// builds it in a detached std::vector<StmtPtr> (the paper's
// List<Statement>) and splices it in when complete — consistency is checked
// at incorporation time.
#pragma once

#include <map>
#include <vector>

#include "ir/stmt.h"

namespace polaris {

class StmtList {
 public:
  StmtList() = default;
  ~StmtList();
  StmtList(const StmtList&) = delete;
  StmtList& operator=(const StmtList&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  Statement* first() const { return head_.get(); }
  Statement* last() const { return tail_; }

  /// Appends and revalidates.  Returns the inserted statement.
  Statement* push_back(StmtPtr s);
  /// Appends/inserts a detached fragment (consistency checked afterwards).
  void splice_back(std::vector<StmtPtr> fragment);
  void splice_before(Statement* pos, std::vector<StmtPtr> fragment);
  void splice_after(Statement* pos, std::vector<StmtPtr> fragment);

  /// Removes and destroys a single statement.  The resulting list must
  /// still be well-formed (removing one half of a do/enddo pair asserts).
  void remove(Statement* s);

  /// Deep-copies the inclusive range [first, last] into a detached fragment.
  std::vector<StmtPtr> clone_range(Statement* first, Statement* last) const;

  /// The statement carrying numeric label `l`, or null.
  Statement* find_label(int l) const;

  /// Read-only view of the whole label map (the IR verifier cross-checks
  /// it against the labels statements actually carry, in both directions).
  const std::map<int, Statement*>& label_map() const { return labels_; }

  /// All DO statements, outermost first, in source order.
  std::vector<DoStmt*> loops() const;
  /// DO statements properly nested inside `outer_do` (any depth).
  std::vector<DoStmt*> loops_in(DoStmt* outer_do) const;
  /// Nesting depth of a statement (number of enclosing DOs).
  int depth(const Statement* s) const;

  /// Statements strictly inside the body of `d` (between DO and ENDDO),
  /// including nested structure, in source order.
  std::vector<Statement*> body(DoStmt* d) const;

  /// Re-derives all structural links and asserts well-formedness.
  /// Called automatically by every mutating operation; public so that
  /// passes mutating expressions in place can re-check invariants cheaply.
  void revalidate();

  /// Simple forward iteration over raw Statement pointers.
  class iterator {
   public:
    explicit iterator(Statement* s) : s_(s) {}
    Statement* operator*() const { return s_; }
    iterator& operator++() {
      s_ = s_->next();
      return *this;
    }
    bool operator!=(const iterator& o) const { return s_ != o.s_; }
    bool operator==(const iterator& o) const { return s_ == o.s_; }

   private:
    Statement* s_;
  };
  iterator begin() const { return iterator(head_.get()); }
  iterator end() const { return iterator(nullptr); }

 private:
  /// Test-only seam (see Statement): lets verifier tests corrupt the label
  /// map and derived links that the public API keeps consistent.
  friend class VerifierTestPeer;

  std::unique_ptr<Statement> head_;
  Statement* tail_ = nullptr;
  std::size_t size_ = 0;
  std::map<int, Statement*> labels_;
};

}  // namespace polaris
