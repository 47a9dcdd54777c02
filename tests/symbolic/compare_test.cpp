// Tests for the symbolic comparison engine on the paper's own examples.
#include "symbolic/compare.h"

#include <gtest/gtest.h>

#include "ir/build.h"
#include "parser/parser.h"

namespace polaris {
namespace {

class CompareTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* j = symtab.declare("j", Type::integer(), SymbolKind::Variable);
  Symbol* k = symtab.declare("k", Type::integer(), SymbolKind::Variable);
  Symbol* n = symtab.declare("n", Type::integer(), SymbolKind::Variable);
  Symbol* m = symtab.declare("m", Type::integer(), SymbolKind::Variable);
  AtomId ai = AtomTable::current().intern_symbol(i);
  AtomId aj = AtomTable::current().intern_symbol(j);
  AtomId an = AtomTable::current().intern_symbol(n);

  ExprPtr E(const std::string& text) { return parse_expression(text, symtab); }
  Polynomial P(const std::string& text) {
    return Polynomial::from_expr(*E(text));
  }
};

TEST_F(CompareTest, ConstantSigns) {
  FactContext ctx;
  EXPECT_TRUE(prove_ge0(P("3"), ctx));
  EXPECT_TRUE(prove_ge0(P("0"), ctx));
  EXPECT_FALSE(prove_ge0(P("-1"), ctx));
  EXPECT_TRUE(prove_gt0(P("1"), ctx));
  EXPECT_FALSE(prove_gt0(P("0"), ctx));
}

TEST_F(CompareTest, UnknownWithoutFacts) {
  FactContext ctx;
  EXPECT_FALSE(prove_ge0(P("n"), ctx));
  EXPECT_EQ(compare(*E("i"), *E("j"), ctx), Cmp::Unknown);
}

TEST_F(CompareTest, SimpleRangeFacts) {
  FactContext ctx;
  ctx.add_range(n, ib::ic(1).get(), nullptr);  // n >= 1
  EXPECT_TRUE(prove_ge0(P("n"), ctx));
  EXPECT_TRUE(prove_gt0(P("n"), ctx));
  EXPECT_TRUE(prove_ge0(P("n - 1"), ctx));
  EXPECT_FALSE(prove_gt0(P("n - 1"), ctx));
  EXPECT_TRUE(prove_gt0(P("n + 1"), ctx));
}

TEST_F(CompareTest, LoopIndexInRange) {
  // do i = 1, n  =>  1 <= i <= n, n >= 1.
  FactContext ctx;
  ctx.add_loop(i, *E("1"), *E("n"));
  EXPECT_TRUE(prove_ge0(P("i - 1"), ctx));
  EXPECT_TRUE(prove_ge0(P("n - i"), ctx));
  EXPECT_TRUE(prove_ge0(P("n - 1"), ctx));  // trip-count assumption
  EXPECT_TRUE(prove_le(*E("i"), *E("n"), ctx));
  EXPECT_TRUE(prove_le(*E("1"), *E("i"), ctx));
  EXPECT_FALSE(prove_lt(*E("i"), *E("n"), ctx));  // i may equal n
}

TEST_F(CompareTest, PaperNSquaredPlusN) {
  // The paper needs n^2 + n > 0 given n >= 1 (Section 3.3.1).
  FactContext ctx;
  ctx.add_range(n, ib::ic(1).get(), nullptr);
  EXPECT_TRUE(prove_gt0(P("n**2 + n"), ctx));
}

TEST_F(CompareTest, QuadraticNeedsMonotonicity) {
  // j^2 - j >= 0 for j >= 1 (forward difference 2j - 1... actually
  // substituting the lower endpoint: (1)^2 - 1 = 0).
  FactContext ctx;
  ctx.add_range(j, ib::ic(1).get(), nullptr);
  EXPECT_TRUE(prove_ge0(P("j**2 - j"), ctx));
  EXPECT_FALSE(prove_gt0(P("j**2 - j"), ctx));
}

TEST_F(CompareTest, TrfdCrossIterationDisjointness) {
  // The paper's headline proof: with f's per-outer-iteration extremes
  //   a2(i) = (i*(n^2+n) + n^2 - n)/2   (max)
  //   b2(i) = (i*(n^2+n))/2 + 1         (min)
  // show b2(i+1) - a2(i) = n+1 > 0 and that b2 is non-decreasing in i.
  FactContext ctx;
  ctx.add_loop(i, *E("0"), *E("m - 1"));
  ctx.add_range(n, ib::ic(1).get(), nullptr);
  Polynomial a2 = P("(i*(n**2 + n) + n**2 - n)/2");
  Polynomial b2 = P("(i*(n**2 + n))/2 + 1");

  Polynomial gap = b2.substitute(ai, P("i + 1")) - a2;
  EXPECT_TRUE((gap - P("n + 1")).is_zero());
  EXPECT_TRUE(prove_gt0(gap, ctx));

  EXPECT_EQ(monotonicity(b2, ai, ctx), Monotonicity::NonDecreasing);
}

TEST_F(CompareTest, MonotonicityClassification) {
  FactContext ctx;
  ctx.add_loop(j, *E("0"), *E("n - 1"));
  ctx.add_range(n, ib::ic(1).get(), nullptr);
  // f = j^2 - j has forward difference 2j >= 0 for j >= 0.
  EXPECT_EQ(monotonicity(P("j**2 - j"), aj, ctx),
            Monotonicity::NonDecreasing);
  EXPECT_EQ(monotonicity(P("-2*j"), aj, ctx), Monotonicity::NonIncreasing);
  EXPECT_EQ(monotonicity(P("n"), aj, ctx), Monotonicity::Constant);
  // n*j has unknown monotonicity in j without a sign for n... but n >= 1
  // here, so it is non-decreasing; drop the fact to get Unknown.
  FactContext empty;
  EXPECT_EQ(monotonicity(P("n*j"), aj, empty), Monotonicity::Unknown);
  EXPECT_EQ(monotonicity(P("n*j"), aj, ctx), Monotonicity::NonDecreasing);
}

TEST_F(CompareTest, EliminateRangeEndpoints) {
  // f = k + 1 over k in [0, j-1]: min = 1, max = j.
  FactContext ctx;
  ctx.add_loop(j, *E("1"), *E("n"));
  Extremes ex = eliminate_range(P("k + 1"),
                                AtomTable::current().intern_symbol(k),
                                P("0"), P("j - 1"), ctx);
  ASSERT_TRUE(ex.min.has_value());
  ASSERT_TRUE(ex.max.has_value());
  EXPECT_TRUE((*ex.min - P("1")).is_zero());
  EXPECT_TRUE((*ex.max - P("j")).is_zero());
}

TEST_F(CompareTest, EliminateRangeUsesMonotonicity) {
  // f = (j^2-j)/2 over j in [0, n-1] is non-decreasing (given j >= 0):
  // min = f(0) = 0, max = f(n-1) = (n^2 - 3n + 2)/2.
  FactContext ctx;
  ctx.add_loop(j, *E("0"), *E("n - 1"));
  ctx.add_range(n, ib::ic(1).get(), nullptr);
  Extremes ex = eliminate_range(P("(j**2 - j)/2"), aj, P("0"), P("n - 1"),
                                ctx);
  ASSERT_TRUE(ex.min.has_value());
  ASSERT_TRUE(ex.max.has_value());
  EXPECT_TRUE(ex.min->is_zero());
  EXPECT_TRUE((*ex.max - P("(n*n - 3*n + 2)/2")).is_zero());
}

TEST_F(CompareTest, EliminateRangeUnknownMonotonicityFails) {
  // f = j^2 - 2*m*j: monotonicity in j unknown without facts about m.
  FactContext ctx;
  ctx.add_loop(j, *E("0"), *E("n - 1"));
  Extremes ex = eliminate_range(P("j**2 - 2*m*j"), aj, P("0"), P("n - 1"),
                                ctx);
  EXPECT_FALSE(ex.min.has_value());
  EXPECT_FALSE(ex.max.has_value());
}

TEST_F(CompareTest, CompareStrongestRelation) {
  FactContext ctx;
  ctx.add_loop(i, *E("1"), *E("n"));
  EXPECT_EQ(compare(*E("i"), *E("i"), ctx), Cmp::EQ);
  EXPECT_EQ(compare(*E("i + 1"), *E("i"), ctx), Cmp::GT);
  EXPECT_EQ(compare(*E("i"), *E("n"), ctx), Cmp::LE);
  EXPECT_EQ(compare(*E("1"), *E("i"), ctx), Cmp::LE);
  EXPECT_EQ(compare(*E("0"), *E("i"), ctx), Cmp::LT);
}

TEST_F(CompareTest, IfConditionFacts) {
  // Fact from "if (mp .ge. m*p)": mp - m*p >= 0 proves mp >= m*p — the
  // paper's Figure 4 query (resolved there via GSA; the comparison engine
  // consumes the fact in the same form).
  Symbol* mp = symtab.declare("mp", Type::integer(), SymbolKind::Variable);
  Symbol* p = symtab.declare("p", Type::integer(), SymbolKind::Variable);
  (void)mp; (void)p;
  FactContext ctx;
  ctx.add_ge0(*E("mp - m*p"));
  EXPECT_TRUE(prove_le(*E("m*p"), *E("mp"), ctx));
}

TEST_F(CompareTest, EliminationRankOrdersInnerFirst) {
  // With ranks guiding elimination, inner index k (rank 2) goes before n
  // (rank 0): prove k <= n*j given k <= j, j <= n... needs two rounds.
  FactContext ctx;
  ctx.add_loop(j, *E("1"), *E("n"));
  ctx.add_loop(k, *E("1"), *E("j"));
  ctx.set_rank(AtomTable::current().intern_symbol(k), 2);
  ctx.set_rank(aj, 1);
  EXPECT_TRUE(prove_le(*E("k"), *E("n"), ctx));
}

}  // namespace
}  // namespace polaris
