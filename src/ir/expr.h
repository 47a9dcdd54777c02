// Expression trees.
//
// Expressions are strict trees: sharing is not allowed (the paper:
// "detection of aliased structures ... causes a run-time error" — inserting
// one expression into two statements without copying is a bug).  We enforce
// this structurally with unique_ptr ownership; clone() produces deep copies.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/symbol.h"
#include "ir/type.h"
#include "support/assert.h"

namespace polaris {

enum class ExprKind {
  IntConst,
  RealConst,
  LogicalConst,
  StringConst,
  VarRef,
  ArrayRef,
  BinOp,
  UnOp,
  FuncCall,
};

enum class BinOpKind {
  Add, Sub, Mul, Div, Pow,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
};

enum class UnOpKind { Neg, Not };

bool is_comparison(BinOpKind k);
bool is_arithmetic(BinOpKind k);
/// Fortran spelling: "+", ".lt.", ".and.", ...
std::string binop_spelling(BinOpKind k);

class Expression;
using ExprPtr = std::unique_ptr<Expression>;

class Expression {
 public:
  virtual ~Expression() = default;
  Expression(const Expression&) = delete;
  Expression& operator=(const Expression&) = delete;

  ExprKind kind() const { return kind_; }

  /// Deep copy.
  virtual ExprPtr clone() const = 0;

  /// Structural equality (symbol identity for references, exact constants).
  bool equals(const Expression& other) const;

  /// Child slots in operand order, a view of the node's own storage (so
  /// traversal never allocates); assigning a slot replaces that operand.
  virtual std::span<ExprPtr> children() = 0;
  std::span<const ExprPtr> children() const {
    return const_cast<Expression*>(this)->children();
  }

  /// Approximate Fortran type of the expression's value.
  virtual Type type() const = 0;

  virtual void print(std::ostream& os) const = 0;
  std::string to_string() const;

  /// Structural hash, consistent with equals().
  std::size_t hash() const;

  /// True if any node in the tree satisfies `pred`.
  bool contains(const std::function<bool(const Expression&)>& pred) const;
  /// True if the tree references `sym` (as VarRef or ArrayRef base).
  bool references(const Symbol* sym) const;

 protected:
  explicit Expression(ExprKind k) : kind_(k) {}

 private:
  ExprKind kind_;
};

std::ostream& operator<<(std::ostream& os, const Expression& e);

// --- leaf nodes -------------------------------------------------------------

class IntConst final : public Expression {
 public:
  explicit IntConst(std::int64_t v)
      : Expression(ExprKind::IntConst), value_(v) {}
  std::int64_t value() const { return value_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {}; }
  Type type() const override { return Type::integer(); }
  void print(std::ostream& os) const override;

 private:
  std::int64_t value_;
};

class RealConst final : public Expression {
 public:
  RealConst(double v, bool is_double)
      : Expression(ExprKind::RealConst), value_(v), is_double_(is_double) {}
  double value() const { return value_; }
  bool is_double() const { return is_double_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {}; }
  Type type() const override {
    return is_double_ ? Type::double_precision() : Type::real();
  }
  void print(std::ostream& os) const override;

 private:
  double value_;
  bool is_double_;
};

class LogicalConst final : public Expression {
 public:
  explicit LogicalConst(bool v)
      : Expression(ExprKind::LogicalConst), value_(v) {}
  bool value() const { return value_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {}; }
  Type type() const override { return Type::logical(); }
  void print(std::ostream& os) const override;

 private:
  bool value_;
};

class StringConst final : public Expression {
 public:
  explicit StringConst(std::string v)
      : Expression(ExprKind::StringConst), value_(std::move(v)) {}
  const std::string& value() const { return value_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {}; }
  Type type() const override { return Type::character(); }
  void print(std::ostream& os) const override;

 private:
  std::string value_;
};

/// Reference to a scalar variable (or to a whole array when used as an
/// actual argument).
class VarRef final : public Expression {
 public:
  explicit VarRef(Symbol* sym) : Expression(ExprKind::VarRef), sym_(sym) {
    p_assert(sym != nullptr);
  }
  Symbol* symbol() const { return sym_; }
  void set_symbol(Symbol* s) { p_assert(s); sym_ = s; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {}; }
  Type type() const override { return sym_->type(); }
  void print(std::ostream& os) const override;

 private:
  Symbol* sym_;
};

/// Subscripted array reference A(s1, ..., sk).
class ArrayRef final : public Expression {
 public:
  ArrayRef(Symbol* sym, std::vector<ExprPtr> subs);
  Symbol* symbol() const { return sym_; }
  void set_symbol(Symbol* s) { p_assert(s); sym_ = s; }
  const std::vector<ExprPtr>& subscripts() const { return subs_; }
  std::vector<ExprPtr>& subscripts() { return subs_; }
  int rank() const { return static_cast<int>(subs_.size()); }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return subs_; }
  Type type() const override { return sym_->type(); }
  void print(std::ostream& os) const override;

 private:
  Symbol* sym_;
  std::vector<ExprPtr> subs_;
};

class BinOp final : public Expression {
 public:
  BinOp(BinOpKind op, ExprPtr l, ExprPtr r);
  BinOpKind op() const { return op_; }
  const Expression& left() const { return *ops_[0]; }
  const Expression& right() const { return *ops_[1]; }
  Expression& left() { return *ops_[0]; }
  Expression& right() { return *ops_[1]; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return ops_; }
  Type type() const override;
  void print(std::ostream& os) const override;

 private:
  BinOpKind op_;
  ExprPtr ops_[2];  // left, right
};

class UnOp final : public Expression {
 public:
  UnOp(UnOpKind op, ExprPtr e);
  UnOpKind op() const { return op_; }
  const Expression& operand() const { return *operand_; }
  Expression& operand() { return *operand_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return {&operand_, 1}; }
  Type type() const override { return operand_->type(); }
  void print(std::ostream& os) const override;

 private:
  UnOpKind op_;
  ExprPtr operand_;
};

/// Call to an intrinsic or user function: name(args...).
class FuncCall final : public Expression {
 public:
  FuncCall(std::string name, std::vector<ExprPtr> args, Type result_type);
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::vector<ExprPtr>& args() { return args_; }
  ExprPtr clone() const override;
  std::span<ExprPtr> children() override { return args_; }
  Type type() const override { return result_type_; }
  void set_type(Type t) { result_type_ = t; }
  void print(std::ostream& os) const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  Type result_type_;
};

// --- generic walks ----------------------------------------------------------

/// Pre-order visit of every node in the tree (const).
void walk(const Expression& e,
          const std::function<void(const Expression&)>& fn);

/// Pre-order visit with mutable slot access: fn receives each slot; if it
/// replaces the slot's contents the new subtree is not revisited.
void walk_slots(ExprPtr& root, const std::function<void(ExprPtr&)>& fn);

/// Replaces every reference to scalar symbol `sym` with a clone of `to`.
int replace_var(ExprPtr& root, const Symbol* sym, const Expression& to);

/// Rewrites every VarRef/ArrayRef symbol in the tree through `map`
/// (identity for symbols not present).  Used by ProgramUnit::clone.
void remap_symbols(Expression& e, const SymbolMap<Symbol*>& map);

}  // namespace polaris
