#include "ir/symbol.h"

#include <gtest/gtest.h>

#include "ir/build.h"

namespace polaris {
namespace {

TEST(SymbolTest, NamesCanonicalizedToLowerCase) {
  SymbolTable t;
  Symbol* s = t.declare("FooBar", Type::real(), SymbolKind::Variable);
  EXPECT_EQ(s->name(), "foobar");
  EXPECT_EQ(t.lookup("FOOBAR"), s);
  EXPECT_EQ(t.lookup("foobar"), s);
}

TEST(SymbolTest, DuplicateDeclarationAsserts) {
  SymbolTable t;
  t.declare("x", Type::real(), SymbolKind::Variable);
  EXPECT_THROW(t.declare("X", Type::integer(), SymbolKind::Variable),
               InternalError);
}

TEST(SymbolTest, GetOrDeclare) {
  SymbolTable t;
  Symbol* a = t.get_or_declare("a", Type::integer());
  Symbol* b = t.get_or_declare("a", Type::real());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->type(), Type::integer());  // first declaration wins
}

TEST(SymbolTest, FreshNamesAvoidCollisions) {
  SymbolTable t;
  t.declare("tmp", Type::real(), SymbolKind::Variable);
  t.declare("tmp0", Type::real(), SymbolKind::Variable);
  Symbol* f = t.fresh("tmp", Type::real());
  EXPECT_EQ(f->name(), "tmp1");
}

TEST(SymbolTest, DimsAndRank) {
  SymbolTable t;
  Symbol* a = t.declare("a", Type::real(), SymbolKind::Variable);
  EXPECT_FALSE(a->is_array());
  std::vector<Dimension> dims;
  dims.emplace_back(nullptr, ib::ic(10));
  dims.emplace_back(ib::ic(0), ib::ic(20));
  a->set_dims(std::move(dims));
  EXPECT_TRUE(a->is_array());
  EXPECT_EQ(a->rank(), 2);
  EXPECT_EQ(a->dims()[1].lower->to_string(), "0");
}

TEST(SymbolTest, DeclarationOrderPreserved) {
  SymbolTable t;
  t.declare("z", Type::real(), SymbolKind::Variable);
  t.declare("a", Type::real(), SymbolKind::Variable);
  t.declare("m", Type::real(), SymbolKind::Variable);
  ASSERT_EQ(t.symbols().size(), 3u);
  EXPECT_EQ(t.symbols()[0]->name(), "z");
  EXPECT_EQ(t.symbols()[1]->name(), "a");
  EXPECT_EQ(t.symbols()[2]->name(), "m");
}

TEST(SymbolTest, SlotIsDeclarationIndex) {
  SymbolTable t;
  Symbol* a = t.declare("a", Type::real(), SymbolKind::Variable);
  Symbol* b = t.get_or_declare("b", Type::real());
  Symbol* c = t.fresh("c", Type::real());
  EXPECT_EQ(a->slot(), 0);
  EXPECT_EQ(b->slot(), 1);
  EXPECT_EQ(c->slot(), 2);
  EXPECT_EQ(t.get_or_declare("a", Type::real()), a);
  Symbol* d = t.fresh("c", Type::real());
  EXPECT_EQ(d->slot(), 3);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t.symbols()[i]->slot(), static_cast<int>(i));
}

TEST(SymbolTest, ParameterValueOwned) {
  SymbolTable t;
  Symbol* n = t.declare("n", Type::integer(), SymbolKind::Parameter);
  n->set_param_value(ib::ic(100));
  ASSERT_NE(n->param_value(), nullptr);
  EXPECT_EQ(n->param_value()->to_string(), "100");
}

TEST(SymbolTest, CommonBlockMembership) {
  SymbolTable t;
  Symbol* a = t.declare("a", Type::real(), SymbolKind::Variable);
  EXPECT_FALSE(a->in_common());
  a->set_common_block("blk");
  EXPECT_TRUE(a->in_common());
  EXPECT_EQ(a->common_block(), "blk");
}

TEST(SymbolTest, UniqueIds) {
  SymbolTable t;
  Symbol* a = t.declare("a", Type::real(), SymbolKind::Variable);
  Symbol* b = t.declare("b", Type::real(), SymbolKind::Variable);
  EXPECT_NE(a->id(), b->id());
}

}  // namespace
}  // namespace polaris
