#include "ir/expr.h"

#include <gtest/gtest.h>

#include "ir/build.h"

namespace polaris {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* n = symtab.declare("n", Type::integer(), SymbolKind::Variable);
  Symbol* a = [this] {
    Symbol* s = symtab.declare("a", Type::real(), SymbolKind::Variable);
    std::vector<Dimension> dims;
    dims.emplace_back(nullptr, ib::ic(100));
    s->set_dims(std::move(dims));
    return s;
  }();
};

TEST_F(ExprTest, StructuralEquality) {
  ExprPtr e1 = ib::add(ib::var(i), ib::ic(1));
  ExprPtr e2 = ib::add(ib::var(i), ib::ic(1));
  ExprPtr e3 = ib::add(ib::var(n), ib::ic(1));
  EXPECT_TRUE(e1->equals(*e2));
  EXPECT_FALSE(e1->equals(*e3));
}

TEST_F(ExprTest, EqualityDistinguishesOperators) {
  ExprPtr e1 = ib::add(ib::var(i), ib::ic(1));
  ExprPtr e2 = ib::sub(ib::var(i), ib::ic(1));
  EXPECT_FALSE(e1->equals(*e2));
}

TEST_F(ExprTest, CloneIsDeepAndEqual) {
  ExprPtr e = ib::mul(ib::add(ib::var(i), ib::ic(2)),
                      ib::aref(a, ib::var(i)));
  ExprPtr c = e->clone();
  EXPECT_TRUE(e->equals(*c));
  EXPECT_NE(e.get(), c.get());
  // Mutating the clone must not affect the original.
  c->children()[0] = ib::ic(7);
  EXPECT_FALSE(e->equals(*c));
}

TEST_F(ExprTest, HashConsistentWithEquality) {
  ExprPtr e1 = ib::add(ib::mul(ib::var(n), ib::var(i)), ib::ic(3));
  ExprPtr e2 = e1->clone();
  EXPECT_EQ(e1->hash(), e2->hash());
}

TEST_F(ExprTest, PrintWithMinimalParens) {
  ExprPtr e = ib::mul(ib::add(ib::var(i), ib::ic(1)), ib::var(n));
  EXPECT_EQ(e->to_string(), "(i+1)*n");
  ExprPtr f = ib::add(ib::mul(ib::var(i), ib::var(n)), ib::ic(1));
  EXPECT_EQ(f->to_string(), "i*n+1");
}

TEST_F(ExprTest, PrintPowerAndComparison) {
  ExprPtr e = ib::le(ib::pow(ib::var(n), ib::ic(2)), ib::var(i));
  EXPECT_EQ(e->to_string(), "n**2.le.i");
}

TEST_F(ExprTest, PrintSubtractionNeedsRightParens) {
  // a - (b - c) must keep its parentheses.
  Symbol* b = symtab.declare("b", Type::real(), SymbolKind::Variable);
  Symbol* cc = symtab.declare("c", Type::real(), SymbolKind::Variable);
  ExprPtr e = ib::sub(ib::var(n), ib::sub(ib::var(b), ib::var(cc)));
  EXPECT_EQ(e->to_string(), "n-(b-c)");
}

TEST_F(ExprTest, TypePromotion) {
  ExprPtr e = ib::add(ib::var(i), ib::rc(1.5));
  EXPECT_EQ(e->type(), Type::real());
  ExprPtr d = ib::mul(ib::rc(1.0, true), ib::var(i));
  EXPECT_EQ(d->type(), Type::double_precision());
  ExprPtr cmp = ib::lt(ib::var(i), ib::var(n));
  EXPECT_EQ(cmp->type(), Type::logical());
}

TEST_F(ExprTest, ReferencesFindsSymbols) {
  ExprPtr e = ib::add(ib::aref(a, ib::var(i)), ib::ic(1));
  EXPECT_TRUE(e->references(a));
  EXPECT_TRUE(e->references(i));
  EXPECT_FALSE(e->references(n));
}

TEST_F(ExprTest, WalkVisitsAllNodes) {
  ExprPtr e = ib::add(ib::mul(ib::var(i), ib::var(n)), ib::ic(1));
  int count = 0;
  walk(*e, [&](const Expression&) { ++count; });
  EXPECT_EQ(count, 5);
}

TEST_F(ExprTest, ReplaceVarSubstitutesScalarUses) {
  ExprPtr e = ib::add(ib::var(i), ib::aref(a, ib::var(i)));
  ExprPtr closed = ib::add(ib::var(n), ib::ic(1));
  EXPECT_EQ(replace_var(e, i, *closed), 2);
  EXPECT_EQ(e->to_string(), "n+1+a(n+1)");
}

TEST_F(ExprTest, ArrayRefRequiresSubscripts) {
  std::vector<ExprPtr> empty;
  EXPECT_THROW(std::make_unique<ArrayRef>(a, std::move(empty)),
               InternalError);
}

TEST_F(ExprTest, NegativeConstantsParenthesized) {
  ExprPtr e = ib::ic(-3);
  EXPECT_EQ(e->to_string(), "(-3)");
}

}  // namespace
}  // namespace polaris
