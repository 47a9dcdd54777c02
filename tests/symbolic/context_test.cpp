#include "symbolic/context.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

class ContextTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* n = symtab.declare("n", Type::integer(), SymbolKind::Variable);
  Symbol* j = symtab.declare("j", Type::integer(), SymbolKind::Variable);
  AtomId ai = AtomTable::current().intern_symbol(i);
  AtomId an = AtomTable::current().intern_symbol(n);

  Polynomial P(const std::string& text) {
    ExprPtr e = parse_expression(text, symtab);
    return Polynomial::from_expr(*e);
  }
};

TEST_F(ContextTest, RangeYieldsBounds) {
  FactContext ctx;
  ExprPtr one = parse_expression("1", symtab);
  ExprPtr nn = parse_expression("n", symtab);
  ctx.add_range(i, one.get(), nn.get());
  auto lo = ctx.lower_bounds(ai);
  ASSERT_EQ(lo.size(), 1u);
  EXPECT_TRUE((lo[0] - P("1")).is_zero());
  auto hi = ctx.upper_bounds(ai);
  ASSERT_EQ(hi.size(), 1u);
  EXPECT_TRUE((hi[0] - P("n")).is_zero());
}

TEST_F(ContextTest, LoopAddsTripCountFact) {
  FactContext ctx;
  ExprPtr one = parse_expression("1", symtab);
  ExprPtr nn = parse_expression("n", symtab);
  ctx.add_loop(i, *one, *nn);
  // n's lower bounds: i (from n - i >= 0) and 1 (the trip-count
  // assumption n - 1 >= 0).
  auto lo_n = ctx.lower_bounds(an);
  ASSERT_EQ(lo_n.size(), 2u);
  bool has_one = false;
  for (const Polynomial& b : lo_n)
    if ((b - P("1")).is_zero()) has_one = true;
  EXPECT_TRUE(has_one);
}

TEST_F(ContextTest, ScaledFactsNormalize) {
  // 2i - n >= 0  =>  i >= n/2.
  FactContext ctx;
  ctx.add_ge0(P("2*i - n"));
  auto lo = ctx.lower_bounds(ai);
  ASSERT_EQ(lo.size(), 1u);
  EXPECT_TRUE((lo[0] - P("n")*Polynomial::constant(Rational(1, 2))).is_zero());
  // And the same fact gives n an upper bound 2i.
  auto hi = ctx.upper_bounds(an);
  ASSERT_EQ(hi.size(), 1u);
  EXPECT_TRUE((hi[0] - P("2*i")).is_zero());
}

TEST_F(ContextTest, CompositeMonomialsGiveNoBounds) {
  // n*i - 5 >= 0 has no linear bound for either atom.
  FactContext ctx;
  ctx.add_ge0(P("n*i - 5"));
  EXPECT_TRUE(ctx.lower_bounds(ai).empty());
  EXPECT_TRUE(ctx.lower_bounds(an).empty());
}

TEST_F(ContextTest, ConstantFactsDropped) {
  FactContext ctx;
  ctx.add_ge0(P("5"));
  EXPECT_TRUE(ctx.facts().empty());
}

TEST_F(ContextTest, RanksDefaultZero) {
  FactContext ctx;
  EXPECT_EQ(ctx.rank(ai), 0);
  ctx.set_rank(ai, 3);
  EXPECT_EQ(ctx.rank(ai), 3);
}

// An atom's bounds are derived once: repeated queries hand out the same
// stored lists, in fact order, equal to what a fresh context derives.
TEST_F(ContextTest, BoundsDerivedOnceInFactOrder) {
  const char* facts[] = {"i - 1", "n - i", "2*i - n", "n*i - 5", "i - j"};
  FactContext ctx;
  for (const char* f : facts) ctx.add_ge0(P(f));
  const std::vector<Polynomial>& lo = ctx.lower_bounds(ai);
  ASSERT_EQ(lo.size(), 3u);
  EXPECT_EQ(lo[0], P("1"));
  EXPECT_EQ(lo[1], P("n/2"));
  EXPECT_EQ(lo[2], P("j"));
  EXPECT_EQ(&ctx.lower_bounds(ai), &lo);  // the stored list, not a copy
  ASSERT_EQ(ctx.upper_bounds(ai).size(), 1u);
  EXPECT_EQ(ctx.upper_bounds(ai)[0], P("n"));

  FactContext fresh;
  for (const char* f : facts) fresh.add_ge0(P(f));
  EXPECT_EQ(ctx.lower_bounds(ai), fresh.lower_bounds(ai));
  EXPECT_EQ(ctx.upper_bounds(ai), fresh.upper_bounds(ai));
  EXPECT_EQ(ctx.lower_bounds(an), fresh.lower_bounds(an));
  EXPECT_EQ(ctx.upper_bounds(an), fresh.upper_bounds(an));
  EXPECT_TRUE(ctx.lower_bounds(AtomTable::current().intern_symbol(j))
                  .empty());
}

TEST_F(ContextTest, LaterFactRefreshesBounds) {
  FactContext ctx;
  ctx.add_ge0(P("i - 1"));
  ASSERT_EQ(ctx.lower_bounds(ai).size(), 1u);
  EXPECT_TRUE(ctx.upper_bounds(ai).empty());
  EXPECT_TRUE(ctx.upper_bounds(an).empty());
  ctx.add_ge0(P("n - i"));
  ctx.add_ge0(P("i - 3"));
  ASSERT_EQ(ctx.lower_bounds(ai).size(), 2u);
  EXPECT_EQ(ctx.lower_bounds(ai)[0], P("1"));
  EXPECT_EQ(ctx.lower_bounds(ai)[1], P("3"));
  ASSERT_EQ(ctx.upper_bounds(ai).size(), 1u);
  EXPECT_EQ(ctx.upper_bounds(ai)[0], P("n"));
  ASSERT_EQ(ctx.lower_bounds(an).size(), 1u);
  EXPECT_EQ(ctx.lower_bounds(an)[0], P("i"));
  // A copied context carries the derived bounds along.
  FactContext copy = ctx;
  EXPECT_EQ(copy.lower_bounds(ai), ctx.lower_bounds(ai));
}

TEST_F(ContextTest, MultipleFactsMultipleBounds) {
  FactContext ctx;
  ctx.add_ge0(P("i - 1"));
  ctx.add_ge0(P("i - n"));
  auto lo = ctx.lower_bounds(ai);
  EXPECT_EQ(lo.size(), 2u);
}

}  // namespace
}  // namespace polaris
