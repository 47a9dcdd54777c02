// Symbols and symbol tables.
//
// A Symbol is owned by exactly one SymbolTable (the Polaris ownership
// convention: the creator owns; passing a pointer transfers ownership,
// passing a reference does not).  Expressions refer to symbols with
// non-owning Symbol* — the table outlives all references into it, and a
// table never gives up a symbol once declared.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/type.h"
#include "support/assert.h"

namespace polaris {

class Expression;
using ExprPtr = std::unique_ptr<Expression>;

enum class SymbolKind {
  Variable,    ///< ordinary variable (scalar or array)
  Parameter,   ///< Fortran PARAMETER (named constant)
  Function,    ///< user function program unit
  Subroutine,  ///< user subroutine program unit
  Intrinsic,   ///< intrinsic function (mod, min, max, abs, sqrt, ...)
};

/// Fortran 77's limit on the number of array dimensions.  The parser
/// rejects larger declarations; the interpreter sizes its subscript buffer
/// by it.
constexpr std::size_t kMaxArrayRank = 7;

/// One declared array dimension: lower and upper bound expressions.
/// `upper == nullptr` means assumed size ('*', legal only for formals).
struct Dimension {
  ExprPtr lower;  ///< null means the default lower bound of 1
  ExprPtr upper;

  Dimension();
  Dimension(ExprPtr lo, ExprPtr hi);
  Dimension(Dimension&&) noexcept;
  Dimension& operator=(Dimension&&) noexcept;
  ~Dimension();
};

class Symbol {
 public:
  Symbol(std::string name, Type type, SymbolKind kind);
  ~Symbol();

  Symbol(const Symbol&) = delete;
  Symbol& operator=(const Symbol&) = delete;

  const std::string& name() const { return name_; }
  Type type() const { return type_; }
  void set_type(Type t) { type_ = t; }
  SymbolKind kind() const { return kind_; }
  void set_kind(SymbolKind k) { kind_ = k; }

  /// Stable identity, unique process-wide; used for deterministic ordering.
  int id() const { return id_; }
  /// Renumbering hook for the frontend: after the per-unit parallel parse
  /// merges its fragments, symbols are renumbered 1..m in (unit order,
  /// creation order) so every id-derived ordering is a pure function of
  /// the source text, independent of worker count or prior compilations
  /// in the process.  Nothing else may reassign ids.
  void set_id(int id) { id_ = id; }

  /// Position in the owning table's declaration order (0..size-1), fixed
  /// for the symbol's life; -1 before the symbol is declared in a table.
  /// The interpreter indexes activation frames by it.
  int slot() const { return slot_; }

  bool is_array() const { return !dims_.empty(); }
  int rank() const { return static_cast<int>(dims_.size()); }
  const std::vector<Dimension>& dims() const { return dims_; }
  std::vector<Dimension>& dims() { return dims_; }
  void set_dims(std::vector<Dimension> dims) { dims_ = std::move(dims); }

  bool is_formal() const { return is_formal_; }
  void set_formal(bool f) { is_formal_ = f; }

  const std::string& common_block() const { return common_block_; }
  void set_common_block(const std::string& b) { common_block_ = b; }
  bool in_common() const { return !common_block_.empty(); }

  /// For SymbolKind::Parameter: the constant value expression.  Owned here.
  const Expression* param_value() const { return param_value_.get(); }
  void set_param_value(ExprPtr v);

  /// DATA-statement initial values, flattened in array element order.
  /// Owned here; empty if the variable has no DATA initialization.
  const std::vector<ExprPtr>& data_values() const { return data_values_; }
  void add_data_value(ExprPtr v);

 private:
  friend class SymbolTable;  // assigns slot_

  std::string name_;
  Type type_;
  SymbolKind kind_;
  int id_;
  int slot_ = -1;
  std::vector<Dimension> dims_;
  bool is_formal_ = false;
  std::string common_block_;
  ExprPtr param_value_;
  std::vector<ExprPtr> data_values_;
};

/// Orders symbols by Symbol::id() — allocation order, preserved relatively
/// by ProgramUnit::clone.  Every symbol-keyed container whose iteration
/// order can reach the output must use this instead of pointer order:
/// after a fault-isolation restore swaps in a cloned unit, pointer order
/// is arbitrary (heap reuse) but id order is stable, so compiles stay
/// bit-identical to a run that never attempted the failed pass.
struct SymbolIdLess {
  bool operator()(const Symbol* a, const Symbol* b) const {
    return a->id() < b->id();
  }
};

/// Deterministically ordered symbol set/map (see SymbolIdLess).
using SymbolSet = std::set<Symbol*, SymbolIdLess>;
template <typename V>
using SymbolMap = std::map<Symbol*, V, SymbolIdLess>;

/// Per-program-unit symbol table.  Names are canonicalized to lower case.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Declares a new symbol; asserts the name is not already declared.
  Symbol* declare(const std::string& name, Type type, SymbolKind kind);

  /// Returns the symbol or null.
  Symbol* lookup(const std::string& name) const;

  /// Returns an existing symbol or declares a new Variable of `type`.
  Symbol* get_or_declare(const std::string& name, Type type);

  /// Invents a fresh name with the given prefix ("t", "t0", "t1", ...) that
  /// does not collide with any declared name, and declares it.
  Symbol* fresh(const std::string& prefix, Type type);

  bool contains(const std::string& name) const;

  /// Deterministic iteration in declaration order; symbols()[i]->slot()
  /// is i.
  const std::vector<Symbol*>& symbols() const { return order_; }
  std::size_t size() const { return order_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Symbol>> table_;
  std::vector<Symbol*> order_;
};

}  // namespace polaris
