#include "interp/memory.h"

namespace polaris {

std::size_t ArrayStorage::flat_index(const std::int64_t* subs,
                                     std::size_t rank) const {
  p_assert_msg(rank == bounds.size(), "subscript rank mismatch at run time");
  std::int64_t index = 0;
  std::int64_t stride = 1;
  for (std::size_t d = 0; d < rank; ++d) {
    const auto& [lo, hi] = bounds[d];
    p_assert_msg(subs[d] >= lo && subs[d] <= hi,
                 "array subscript out of declared bounds");
    index += (subs[d] - lo) * stride;
    stride *= (hi - lo + 1);
  }
  std::int64_t flat = offset + index;
  p_assert_msg(flat >= 0 &&
                   static_cast<std::size_t>(flat) < data->size(),
               "flat array index out of storage");
  return static_cast<std::size_t>(flat);
}

Cell* CommonStore::lookup(const std::string& block, const std::string& name) {
  auto it = cells_.find({block, name});
  return it == cells_.end() ? nullptr : it->second.get();
}

Cell* CommonStore::create(const std::string& block, const std::string& name) {
  auto cell = std::make_unique<Cell>();
  Cell* raw = cell.get();
  auto [it, inserted] = cells_.emplace(std::make_pair(block, name),
                                       std::move(cell));
  p_assert_msg(inserted, "duplicate common cell " + block + "/" + name);
  return raw;
}

Cell* Frame::create_local(Symbol* sym) {
  p_assert(sym != nullptr);
  owned_.push_back(std::make_unique<Cell>());
  bind(sym, owned_.back().get());
  return owned_.back().get();
}

void Frame::bind(Symbol* sym, Cell* cell) {
  p_assert(sym != nullptr && cell != nullptr);
  auto slot = static_cast<std::size_t>(sym->slot());
  p_assert_msg(slot < syms_.size(),
               "symbol outside the frame's unit: " + sym->name());
  p_assert_msg(syms_[slot] == nullptr,
               "frame slot already bound: " + sym->name());
  syms_[slot] = sym;
  cells_[slot] = cell;
}

}  // namespace polaris
