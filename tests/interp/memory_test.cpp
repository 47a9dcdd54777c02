#include "interp/memory.h"

#include <gtest/gtest.h>

namespace polaris {
namespace {

ArrayStorage make_array(std::vector<std::pair<std::int64_t, std::int64_t>> b) {
  ArrayStorage a;
  for (const auto& [lo, hi] : b) a.add_dim(lo, hi);
  a.bind(std::make_shared<std::vector<Value>>(
             static_cast<std::size_t>(a.element_count()), Value::real(0.0)),
         0);
  return a;
}

std::size_t index(const ArrayStorage& a,
                  std::initializer_list<std::int64_t> subs) {
  return a.flat_index(subs.begin(), subs.size());
}

TEST(MemoryTest, ColumnMajorIndexing) {
  // Fortran order: first subscript varies fastest.
  ArrayStorage a = make_array({{1, 3}, {1, 4}});
  EXPECT_EQ(a.element_count(), 12);
  EXPECT_EQ(index(a, {1, 1}), 0u);
  EXPECT_EQ(index(a, {2, 1}), 1u);
  EXPECT_EQ(index(a, {1, 2}), 3u);
  EXPECT_EQ(index(a, {3, 4}), 11u);
}

TEST(MemoryTest, NonUnitLowerBounds) {
  ArrayStorage a = make_array({{0, 2}, {-1, 1}});
  EXPECT_EQ(a.element_count(), 9);
  EXPECT_EQ(index(a, {0, -1}), 0u);
  EXPECT_EQ(index(a, {2, 1}), 8u);
}

TEST(MemoryTest, OffsetViews) {
  // A view starting at element 5 of a 10-element payload, reshaped 1-D.
  ArrayStorage base = make_array({{1, 10}});
  ArrayStorage view;
  view.bind(base.payload(), 4);  // element 5, 0-based
  view.add_dim(1, 6);
  (*view.payload())[index(view, {1})] = Value::real(9.0);
  EXPECT_DOUBLE_EQ((*base.payload())[index(base, {5})].as_real(), 9.0);
}

TEST(MemoryTest, BoundsViolationAsserts) {
  ArrayStorage a = make_array({{1, 3}});
  EXPECT_THROW(index(a, {0}), InternalError);
  EXPECT_THROW(index(a, {4}), InternalError);
  EXPECT_THROW(index(a, {1, 1}), InternalError);  // rank mismatch
}

TEST(MemoryTest, FrameLocalAndBinding) {
  SymbolTable symtab;
  Symbol* x = symtab.declare("x", Type::real(), SymbolKind::Variable);
  Symbol* y = symtab.declare("y", Type::real(), SymbolKind::Variable);
  Frame f(symtab.size());
  Cell* cx = f.create_local(x);
  cx->scalar = Value::real(2.5);
  EXPECT_EQ(f.lookup(x), cx);
  EXPECT_EQ(f.lookup(y), nullptr);

  Frame g(symtab.size());
  g.bind(y, cx);  // aliasing: by-reference argument semantics
  g.lookup(y)->scalar = Value::real(7.0);
  EXPECT_DOUBLE_EQ(f.lookup(x)->scalar.as_real(), 7.0);
}

TEST(MemoryTest, DoubleBindAsserts) {
  SymbolTable symtab;
  Symbol* x = symtab.declare("x", Type::real(), SymbolKind::Variable);
  Frame f(symtab.size());
  f.create_local(x);
  EXPECT_THROW(f.create_local(x), InternalError);
}

TEST(MemoryTest, FrameSlotsRejectForeignSymbols) {
  // Two units' first symbols share slot 0; a frame bound for one must not
  // answer for the other, nor let it take the slot.  A slot past the
  // frame's unit is refused too.
  SymbolTable unit_a, unit_b;
  Symbol* a = unit_a.declare("a", Type::real(), SymbolKind::Variable);
  Symbol* b = unit_b.declare("b", Type::real(), SymbolKind::Variable);
  Symbol* c = unit_b.declare("c", Type::real(), SymbolKind::Variable);
  ASSERT_EQ(a->slot(), b->slot());
  Frame f(unit_a.size());
  Cell* ca = f.create_local(a);
  EXPECT_EQ(f.lookup(a), ca);
  EXPECT_EQ(f.lookup(b), nullptr);
  EXPECT_FALSE(f.bound(b));
  EXPECT_THROW(f.create_local(b), InternalError);
  EXPECT_EQ(f.lookup(a), ca);
  EXPECT_EQ(f.lookup(c), nullptr);
  EXPECT_THROW(f.bind(c, ca), InternalError);
}

TEST(MemoryTest, CommonStoreSharedByBlockAndName) {
  CommonStore commons;
  EXPECT_EQ(commons.lookup("blk", "x"), nullptr);
  Cell* c = commons.create("blk", "x");
  EXPECT_EQ(commons.lookup("blk", "x"), c);
  EXPECT_EQ(commons.lookup("other", "x"), nullptr);
  EXPECT_THROW(commons.create("blk", "x"), InternalError);
}

TEST(MemoryTest, ValueCoercion) {
  EXPECT_EQ(Value::real(2.9).coerce_to(Type::integer()).as_int(), 2);
  EXPECT_EQ(Value::real(-2.9).coerce_to(Type::integer()).as_int(), -2);
  EXPECT_DOUBLE_EQ(Value::integer(3).coerce_to(Type::real()).as_real(), 3.0);
  EXPECT_THROW(Value::logical(true).as_int(), InternalError);
  EXPECT_THROW(Value::integer(1).as_logical(), InternalError);
  EXPECT_EQ(Value::zero_of(Type::integer()).as_int(), 0);
  EXPECT_FALSE(Value::zero_of(Type::logical()).as_logical());
}

}  // namespace
}  // namespace polaris
