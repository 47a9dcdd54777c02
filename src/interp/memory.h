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

/// A resolved array: payload + per-dimension [lo, hi] bounds with their
/// column-major strides + flat offset into the payload (for views starting
/// mid-array).  The descriptor is inline: the bounds in a fixed array of
/// kMaxArrayRank, and beside the shared payload its element pointer and
/// size, so an element access reads no other object before the element.
struct ArrayStorage {
  struct Dim {
    std::int64_t lo, hi;
    std::int64_t stride;  ///< elements spanned by one step in this dimension
  };
  Value* elements = nullptr;  ///< the payload's elements (bind() sets it)
  std::size_t size = 0;       ///< the payload's element count
  std::int64_t offset = 0;
  std::size_t rank = 0;  ///< dimensions added
  Dim dims[kMaxArrayRank] = {};

  /// Binds `payload`, from flat element `at` on: the one place the payload
  /// and its cached element pointer and size are set.  The shared payload
  /// owns the elements; whatever changes them keeps its size (a failed
  /// speculative attempt restores them in place), so the pointer stays
  /// valid while the payload is bound.
  void bind(std::shared_ptr<std::vector<Value>> payload, std::int64_t at) {
    payload_ = std::move(payload);
    elements = payload_->data();
    size = payload_->size();
    offset = at;
  }
  const std::shared_ptr<std::vector<Value>>& payload() const {
    return payload_;
  }

  /// Appends dimension lo:hi; its stride is the element count so far.
  /// Interpreter::resolve_array_bounds rejects any bounds whose element
  /// count does not fit int64, before adding them.
  void add_dim(std::int64_t lo, std::int64_t hi) {
    p_assert(rank < kMaxArrayRank);
    dims[rank] = {lo, hi, element_count()};
    ++rank;
  }

  std::int64_t element_count() const {
    if (rank == 0) return 1;
    const Dim& last = dims[rank - 1];
    return last.stride * (last.hi - last.lo + 1);
  }

  /// Column-major (Fortran) flat index of the `n` subscripts at `subs`.
  /// Rank, each subscript and the storage are checked inline; a failed
  /// check raises its InternalError out of line.
  std::size_t flat_index(const std::int64_t* subs, std::size_t n) const {
    if (n != rank) [[unlikely]]
      index_failed("rank == bounds.size()",
                   "subscript rank mismatch at run time", __FILE__,
                   __LINE__);
    std::int64_t flat = offset;
    for (std::size_t d = 0; d < n; ++d) {
      const Dim& dim = dims[d];
      if (subs[d] < dim.lo || subs[d] > dim.hi) [[unlikely]]
        index_failed("subs[d] >= lo && subs[d] <= hi",
                     "array subscript out of declared bounds", __FILE__,
                     __LINE__);
      flat += (subs[d] - dim.lo) * dim.stride;
    }
    if (flat < 0 || static_cast<std::size_t>(flat) >= size) [[unlikely]]
      index_failed("flat >= 0 && static_cast<std::size_t>(flat) < "
                   "data->size()",
                   "flat array index out of storage", __FILE__, __LINE__);
    return static_cast<std::size_t>(flat);
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] static void index_failed(
      const char* cond, const char* msg, const char* file, int line);

  std::shared_ptr<std::vector<Value>> payload_;
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

/// One DO's state in an activation: its DO variable's cell, the value
/// it steps, the step evaluated when the DO was entered and the trips
/// left, this one included (the trip count is computed at entry).
/// `driven` while a parallel or speculative runner steps the loop.
struct LoopSlot {
  std::int64_t value = 0, step = 0;
  std::uint64_t trips = 0;
  Cell* index = nullptr;
  bool driven = false;
};

/// One activation frame: maps symbols to cells through their dense
/// SymbolTable::slot, so every lookup is two vector reads.  The symbol
/// bound at each slot is kept beside the cell: a symbol of another unit
/// that shares the slot number looks up as null.  Lowered ops index the
/// cells directly, by a slot lowering resolved.  Cells for locals are
/// owned by the frame; formals and commons point elsewhere.  The frame
/// also holds one LoopSlot per DO of its unit.
class Frame {
 public:
  /// A frame of `slots` symbol slots and `loops` DOs.
  explicit Frame(std::size_t slots, std::size_t loops = 0)
      : syms_(slots), cells_(slots), loops_(loops) {}

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

  /// The cells by slot (null where no symbol is bound).
  Cell* const* cells() const { return cells_.data(); }
  std::size_t slots() const { return cells_.size(); }
  LoopSlot* loops() { return loops_.data(); }

 private:
  std::vector<const Symbol*> syms_;
  std::vector<Cell*> cells_;
  std::vector<LoopSlot> loops_;
  std::vector<std::unique_ptr<Cell>> owned_;
};

}  // namespace polaris
