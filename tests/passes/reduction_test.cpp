#include "passes/reduction.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  ProgramUnit* unit;
  Diagnostics diags;
  Options opts = Options::polaris();

  explicit Fix(const std::string& src) : prog(parse_program(src)) {
    unit = prog->main();
  }
  std::vector<RecognizedReduction> run(int loop_index = 0) {
    AnalysisManager am;
    return recognize_reductions(
        unit->stmts().loops()[static_cast<size_t>(loop_index)], opts, diags,
        am);
  }
};

TEST(ReductionTest, ScalarSum) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      s = 0.0\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].var->name(), "s");
  EXPECT_EQ(rs[0].op, ReductionKind::Sum);
  EXPECT_FALSE(rs[0].histogram);
  EXPECT_EQ(rs[0].stmts[0]->reduction_flag, ReductionKind::Sum);
}

TEST(ReductionTest, CommutedAndSubtractedForms) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        s = a(i) + s\n"
      "        t = t - a(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].op, ReductionKind::Sum);
  EXPECT_EQ(rs[1].op, ReductionKind::Sum);
}

TEST(ReductionTest, ProductAndMinMax) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        p = p*a(i)\n"
      "        lo = min(lo, a(i))\n"
      "        hi = max(a(i), hi)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 3u);
  std::map<std::string, ReductionKind> kinds;
  for (const auto& r : rs) kinds[r.var->name()] = r.op;
  EXPECT_EQ(kinds["p"], ReductionKind::Product);
  EXPECT_EQ(kinds["lo"], ReductionKind::Min);
  EXPECT_EQ(kinds["hi"], ReductionKind::Max);
}

TEST(ReductionTest, HistogramReduction) {
  // The paper's histogram form: sums into different elements per
  // iteration through an index array.
  Fix f(
      "      program t\n"
      "      real hist(64), v(1000)\n"
      "      integer bin(1000)\n"
      "      do i = 1, 1000\n"
      "        hist(bin(i)) = hist(bin(i)) + v(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].var->name(), "hist");
  EXPECT_TRUE(rs[0].histogram);
}

TEST(ReductionTest, SingleAddressArrayElement) {
  Fix f(
      "      program t\n"
      "      real acc(4), v(100)\n"
      "      do i = 1, 100\n"
      "        acc(2) = acc(2) + v(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_FALSE(rs[0].histogram);
}

TEST(ReductionTest, HistogramDisabledInBaseline) {
  Fix f(
      "      program t\n"
      "      real hist(64), v(1000)\n"
      "      integer bin(1000)\n"
      "      do i = 1, 1000\n"
      "        hist(bin(i)) = hist(bin(i)) + v(i)\n"
      "      end do\n"
      "      end\n");
  f.opts = Options::baseline();
  auto rs = f.run();
  EXPECT_TRUE(rs.empty());
  EXPECT_TRUE(f.diags.contains("histogram reductions disabled"));
}

TEST(ReductionTest, OtherUsesInvalidate) {
  // s is also read outside the reduction statement: not a reduction.
  Fix f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "        b(i) = s\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  EXPECT_TRUE(rs.empty());
  EXPECT_TRUE(f.diags.contains("invalidated"));
}

TEST(ReductionTest, MultipleStatementsSameAccumulator) {
  Fix f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "        s = s + b(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].stmts.size(), 2u);
}

TEST(ReductionTest, MixedOperatorsInvalidate) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "        s = s*a(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  EXPECT_TRUE(rs.empty());
}

TEST(ReductionTest, BetaReferencingAccumulatorRejected) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        s = s + s*a(i)\n"
      "      end do\n"
      "      end\n");
  auto rs = f.run();
  EXPECT_TRUE(rs.empty());
}

TEST(ReductionTest, DisabledGlobally) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        s = s + a(i)\n"
      "      end do\n"
      "      end\n");
  f.opts.reductions = false;
  EXPECT_TRUE(f.run().empty());
}

}  // namespace
}  // namespace polaris
