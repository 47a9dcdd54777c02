#include "interp/memory.h"

namespace polaris {

void ArrayStorage::index_failed(const char* cond, const char* msg,
                                const char* file, int line) {
  detail::assert_failed(cond, file, line, msg);
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
