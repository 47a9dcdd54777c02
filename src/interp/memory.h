// Storage for the PF77 interpreter: scalars, arrays with resolved bounds,
// by-reference argument binding, and COMMON blocks.
//
// Array payloads are shared_ptr vectors so that whole-array arguments
// alias the caller's storage (Fortran by-reference semantics), including
// reshaped/linearized views with an element offset.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "interp/value.h"
#include "ir/symbol.h"

namespace polaris {

/// A resolved array: payload + per-dimension [lo, hi] bounds + flat offset
/// into the payload (for views starting mid-array).
struct ArrayStorage {
  std::shared_ptr<std::vector<Value>> data;
  std::vector<std::pair<std::int64_t, std::int64_t>> bounds;
  std::int64_t offset = 0;

  /// Fits int64: Interpreter::resolve_array_bounds rejects any bounds
  /// whose element count does not.
  std::int64_t element_count() const {
    std::int64_t n = 1;
    for (const auto& [lo, hi] : bounds) n *= (hi - lo + 1);
    return n;
  }

  /// Column-major (Fortran) flat index of the `rank` subscripts at
  /// `subs`; rank and bounds checked with p_assert.
  std::size_t flat_index(const std::int64_t* subs, std::size_t rank) const;
};

/// One variable's storage: scalar or array.
struct Cell {
  bool is_array = false;
  Value scalar;
  ArrayStorage array;
};

/// COMMON storage, shared across activations, keyed by (block, member
/// name) — the PF77 convention of name-matched common members.
class CommonStore {
 public:
  Cell* lookup(const std::string& block, const std::string& name);
  Cell* create(const std::string& block, const std::string& name);

 private:
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Cell>>
      cells_;
};

/// One activation frame: maps symbols to cells through their dense
/// SymbolTable::slot, so every lookup is two vector reads.  The symbol
/// bound at each slot is kept beside the cell: a symbol of another unit
/// that shares the slot number looks up as null.  Cells for locals are
/// owned by the frame; formals and commons point elsewhere.
class Frame {
 public:
  /// A frame for a unit whose symbol table holds `slots` symbols.
  explicit Frame(std::size_t slots) : syms_(slots), cells_(slots) {}

  /// Binds `sym` to frame-owned storage.
  Cell* create_local(Symbol* sym);
  /// Binds `sym` to external storage (argument/common aliasing).
  void bind(Symbol* sym, Cell* cell);

  Cell* lookup(const Symbol* sym) const {
    // An undeclared symbol's slot of -1 wraps past every frame size.
    auto slot = static_cast<std::size_t>(sym->slot());
    return slot < syms_.size() && syms_[slot] == sym ? cells_[slot]
                                                     : nullptr;
  }
  bool bound(const Symbol* sym) const { return lookup(sym) != nullptr; }

 private:
  std::vector<const Symbol*> syms_;
  std::vector<Cell*> cells_;
  std::vector<std::unique_ptr<Cell>> owned_;
};

}  // namespace polaris
