// Statements.
//
// Following the Polaris IR design, statements are simple *non-recursive*
// records kept in a flat, doubly-linked StmtList.  Multi-block constructs
// (do/enddo, block-if chains) are represented by marker statements whose
// cross links (DoStmt::follow, the if-arm chain) are *derived* data,
// recomputed and validated by StmtList::revalidate() after every structural
// edit.  Each statement also carries an `outer` link to its innermost
// enclosing DO, exactly as in the paper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace polaris {

class StmtList;
class DoStmt;
class EndDoStmt;
class EndIfStmt;

enum class StmtKind {
  Assign,
  Do,
  EndDo,
  If,
  ElseIf,
  Else,
  EndIf,
  Goto,
  Continue,
  Call,
  Return,
  Stop,
  Print,
  Comment,
};

/// How a reduction statement is to be implemented (paper Section 3.2).
enum class ReductionKind { None, Sum, Product, Min, Max };

/// Parallelization annotations attached to a DO loop by the analysis
/// pipeline; consumed by the code generator and the execution engine.
struct ReductionInfo {
  Symbol* var = nullptr;       ///< the reduction variable/array
  ReductionKind op = ReductionKind::Sum;
  bool histogram = false;      ///< sums into varying array elements
};

struct ParallelInfo {
  bool is_parallel = false;
  bool speculative = false;    ///< parallelize via the run-time PD test
  std::vector<Symbol*> private_vars;
  std::vector<Symbol*> lastvalue_vars;  ///< privates live-out of the loop
  std::vector<ReductionInfo> reductions;
  /// Arrays whose accesses the run-time PD test must shadow (set only for
  /// speculative loops: the statically unanalyzable arrays).
  std::vector<Symbol*> speculative_arrays;
  /// Dependence-test accounting: access pairs tested and which test
  /// resolved them (diagnostic; filled by the DOALL driver).
  int dep_pairs = 0;
  int dep_by_gcd = 0;
  int dep_by_banerjee = 0;
  int dep_by_rangetest = 0;
  std::string serial_reason;   ///< why the loop stayed serial (diagnostics)
  /// Machine-readable reason code behind serial_reason (kebab-case, e.g.
  /// "carried-dependence"); empty iff the loop is parallel.  Backed by a
  /// structured Missed remark carrying the same code.
  std::string serial_code;
};

class Statement {
 public:
  virtual ~Statement() = default;
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  StmtKind kind() const { return kind_; }
  int id() const { return id_; }
  /// Overwrites the creation-order id.  Only for ProgramUnit::clone: a
  /// fault-isolation checkpoint must restore statement identities — loop
  /// names are "do#<id>" — exactly, or a restored unit would rename
  /// its loops (nondeterministically so under `-jobs=N`, where clone ids
  /// interleave with other workers' allocations).
  void set_id(int id) { id_ = id; }

  int label() const { return label_; }
  void set_label(int l) { label_ = l; }

  /// Innermost enclosing DO loop, or null (derived; set by revalidate()).
  DoStmt* outer() const { return outer_; }

  Statement* next() const { return next_.get(); }
  Statement* prev() const { return prev_; }
  StmtList* list() const { return list_; }

  /// Deep copy of the statement's content (label kept; links not copied —
  /// they are derived data recomputed on insertion).
  virtual std::unique_ptr<Statement> clone() const = 0;

  /// Slots of every expression contained in this statement, in operand
  /// order, as a view of the statement's own storage (so traversal never
  /// allocates); for dependence analysis and substitution.
  virtual std::span<ExprPtr> expr_slots() = 0;
  std::span<const ExprPtr> expressions() const {
    return const_cast<Statement*>(this)->expr_slots();
  }

  virtual void print(std::ostream& os) const = 0;
  std::string to_string() const;

 protected:
  explicit Statement(StmtKind k);

 private:
  friend class StmtList;
  /// Test-only seam: verifier tests corrupt derived links directly to
  /// exercise detection paths unreachable through the consistency-checked
  /// public API.  Defined in tests/ir/verifier_test.cpp only.
  friend class VerifierTestPeer;

  StmtKind kind_;
  int id_;
  int label_ = 0;
  DoStmt* outer_ = nullptr;
  std::unique_ptr<Statement> next_;  // intrusive ownership chain
  Statement* prev_ = nullptr;
  StmtList* list_ = nullptr;
};

using StmtPtr = std::unique_ptr<Statement>;

// --- concrete statements ------------------------------------------------------

/// lhs = rhs, lhs being a VarRef or ArrayRef.
class AssignStmt final : public Statement {
 public:
  AssignStmt(ExprPtr lhs, ExprPtr rhs);
  const Expression& lhs() const { return *slots_[0]; }
  const Expression& rhs() const { return *slots_[1]; }
  ExprPtr& lhs_slot() { return slots_[0]; }
  ExprPtr& rhs_slot() { return slots_[1]; }
  /// Symbol assigned by this statement (base symbol of the lhs).
  Symbol* target() const;

  /// Set when reduction recognition flags this as a reduction statement;
  /// cleared again if dependence analysis proves no carried dependence.
  ReductionKind reduction_flag = ReductionKind::None;

  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return slots_; }
  void print(std::ostream& os) const override;

 private:
  ExprPtr slots_[2];  // lhs, rhs
};

/// do index = init, limit, step
class DoStmt final : public Statement {
 public:
  DoStmt(Symbol* index, ExprPtr init, ExprPtr limit, ExprPtr step);
  Symbol* index() const { return index_; }
  void set_index(Symbol* s) { p_assert(s); index_ = s; }
  const Expression& init() const { return *slots_[0]; }
  const Expression& limit() const { return *slots_[1]; }
  const Expression& step() const { return *slots_[2]; }
  ExprPtr& init_slot() { return slots_[0]; }
  ExprPtr& limit_slot() { return slots_[1]; }
  ExprPtr& step_slot() { return slots_[2]; }

  /// Matching ENDDO (derived; set by revalidate()).
  EndDoStmt* follow() const { return follow_; }
  /// First statement of the body (may be the ENDDO itself if empty).
  Statement* body_first() const { return next(); }

  ParallelInfo par;  ///< parallelization annotations

  /// Stable human-readable name for reports, e.g. "do#12" or "do_100".
  std::string loop_name() const;

  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return slots_; }
  void print(std::ostream& os) const override;

 private:
  friend class StmtList;
  Symbol* index_;
  ExprPtr slots_[3];  // init, limit, step
  EndDoStmt* follow_ = nullptr;
};

class EndDoStmt final : public Statement {
 public:
  EndDoStmt() : Statement(StmtKind::EndDo) {}
  /// The DO this ENDDO closes (derived).
  DoStmt* header() const { return header_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;

 private:
  friend class StmtList;
  DoStmt* header_ = nullptr;
};

/// if (cond) then
class IfStmt final : public Statement {
 public:
  explicit IfStmt(ExprPtr cond);
  const Expression& cond() const { return *cond_; }
  ExprPtr& cond_slot() { return cond_; }
  /// Next arm at this nesting level: ElseIf, Else, or the EndIf (derived).
  Statement* next_arm() const { return next_arm_; }
  EndIfStmt* end() const { return end_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {&cond_, 1}; }
  void print(std::ostream& os) const override;

 private:
  friend class StmtList;
  ExprPtr cond_;
  Statement* next_arm_ = nullptr;
  EndIfStmt* end_ = nullptr;
};

class ElseIfStmt final : public Statement {
 public:
  explicit ElseIfStmt(ExprPtr cond);
  const Expression& cond() const { return *cond_; }
  ExprPtr& cond_slot() { return cond_; }
  Statement* next_arm() const { return next_arm_; }
  EndIfStmt* end() const { return end_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {&cond_, 1}; }
  void print(std::ostream& os) const override;

 private:
  friend class StmtList;
  ExprPtr cond_;
  Statement* next_arm_ = nullptr;
  EndIfStmt* end_ = nullptr;
};

class ElseStmt final : public Statement {
 public:
  ElseStmt() : Statement(StmtKind::Else) {}
  EndIfStmt* end() const { return end_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;

 private:
  friend class StmtList;
  EndIfStmt* end_ = nullptr;
};

class EndIfStmt final : public Statement {
 public:
  EndIfStmt() : Statement(StmtKind::EndIf) {}
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;
};

class GotoStmt final : public Statement {
 public:
  explicit GotoStmt(int target) : Statement(StmtKind::Goto), target_(target) {}
  int target() const { return target_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;

 private:
  int target_;
};

class ContinueStmt final : public Statement {
 public:
  ContinueStmt() : Statement(StmtKind::Continue) {}
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;
};

/// call name(args...)
class CallStmt final : public Statement {
 public:
  CallStmt(std::string name, std::vector<ExprPtr> args);
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::vector<ExprPtr>& args() { return args_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return args_; }
  void print(std::ostream& os) const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

class ReturnStmt final : public Statement {
 public:
  ReturnStmt() : Statement(StmtKind::Return) {}
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;
};

class StopStmt final : public Statement {
 public:
  StopStmt() : Statement(StmtKind::Stop) {}
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;
};

/// print *, items...
class PrintStmt final : public Statement {
 public:
  explicit PrintStmt(std::vector<ExprPtr> items);
  const std::vector<ExprPtr>& items() const { return items_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return items_; }
  void print(std::ostream& os) const override;

 private:
  std::vector<ExprPtr> items_;
};

/// A source comment or compiler directive line, preserved verbatim.
class CommentStmt final : public Statement {
 public:
  explicit CommentStmt(std::string text)
      : Statement(StmtKind::Comment), text_(std::move(text)) {}
  const std::string& text() const { return text_; }
  StmtPtr clone() const override;
  std::span<ExprPtr> expr_slots() override { return {}; }
  void print(std::ostream& os) const override;

 private:
  std::string text_;
};

std::ostream& operator<<(std::ostream& os, const Statement& s);

}  // namespace polaris
