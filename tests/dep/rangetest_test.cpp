// Range test validation on the paper's own loop nests (Figures 2 and 3).
#include "dep/rangetest.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

struct AccessFixture {
  std::unique_ptr<Program> prog;
  ProgramUnit* unit;
  std::vector<DoStmt*> loops;
  SymbolMap<std::vector<ArrayAccess>> accesses;

  AccessFixture(const std::string& src, int outer_loop_index = 0)
      : prog(parse_program(src)) {
    unit = prog->main();
    loops = unit->stmts().loops();
    accesses = collect_array_accesses(loops[static_cast<size_t>(
        outer_loop_index)]);
  }

  const std::vector<ArrayAccess>& of(const std::string& array) {
    Symbol* s = unit->symtab().lookup(array);
    p_assert(s != nullptr);
    return accesses.at(s);
  }
};

/// RangeTest keeps a reference to its options, so they must outlive it.
const Options& polaris_opts() {
  static const Options opts = Options::polaris();
  return opts;
}

TEST(RangeTestTest, SimpleInjectiveSubscript) {
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]));
}

TEST(RangeTestTest, OverlappingWritesNotProven) {
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        a(i) = a(i + 1)\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 2u);
  // a(i) written, a(i+1) read: iteration i+1 writes what i read.
  EXPECT_FALSE(rt.independent(f.loops[0], acc[0], acc[1]));
}

TEST(RangeTestTest, SymbolicStrideWithPositiveWidthFact) {
  // a(n*i + j), j in [1, n]: rows do not overlap given n >= 1.
  AccessFixture f(
      "      program t\n"
      "      real a(10000)\n"
      "      do i = 0, m - 1\n"
      "        do j = 1, n\n"
      "          a(n*i + j) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]));
  EXPECT_TRUE(rt.independent(f.loops[1], acc[0], acc[0]));
}

TEST(RangeTestTest, TrfdFigure2AllLoopsIndependent) {
  // The paper's central example: the OLDA/100 nest after induction
  // substitution.  All three loops carry no dependence.
  AccessFixture f(
      "      program trfd\n"
      "      real a(100000)\n"
      "      do i = 0, m - 1\n"
      "        do j = 0, n - 1\n"
      "          do k = 0, j - 1\n"
      "            a(k + 1 + (i*(n**2 + n) + j**2 - j)/2) = 1.0\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]))
      << "outermost (i) loop";
  EXPECT_TRUE(rt.independent(f.loops[1], acc[0], acc[0])) << "middle (j)";
  EXPECT_TRUE(rt.independent(f.loops[2], acc[0], acc[0])) << "inner (k)";
}

TEST(RangeTestTest, OceanFigure3NeedsPermutation) {
  // FTRVMT/109 simplified: nonlinear term 258*x*j; the outer (k) loop's
  // proof requires fixing the middle (j) loop — the paper's loop swap.
  AccessFixture f(
      "      program ocean\n"
      "      real a(1000000)\n"
      "      integer x, z(100)\n"
      "      do k = 0, x - 1\n"
      "        do j = 0, z(k)\n"
      "          do i = 0, 128\n"
      "            a(258*x*j + 129*k + i + 1) = 1.0\n"
      "            a(258*x*j + 129*k + i + 1 + 129*x) = 2.0\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    for (size_t q = 0; q < 2; ++q) {
      EXPECT_TRUE(rt.independent(f.loops[0], acc[p], acc[q]))
          << "outer k loop, pair " << p << "," << q;
      EXPECT_TRUE(rt.independent(f.loops[1], acc[p], acc[q]))
          << "middle j loop, pair " << p << "," << q;
      EXPECT_TRUE(rt.independent(f.loops[2], acc[p], acc[q]))
          << "inner i loop, pair " << p << "," << q;
    }
  }
}

TEST(RangeTestTest, DecreasingSubscripts) {
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        a(n - i + 1) = 1.0\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]));
}

TEST(RangeTestTest, NegativeStepLoop) {
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = n, 1, -1\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]));
}

TEST(RangeTestTest, WholeRangeDisjointness) {
  // Write region [1, n], read region [n+1, 2n]: no dependence regardless
  // of iteration order.
  AccessFixture f(
      "      program t\n"
      "      real a(1000)\n"
      "      do i = 1, n\n"
      "        a(i) = a(i + n)\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[1]));
}

TEST(RangeTestTest, TwoDimensionalPerDimension) {
  // a(i, j): the i dimension alone proves independence for the i loop.
  AccessFixture f(
      "      program t\n"
      "      real a(100, 100)\n"
      "      do i = 1, n\n"
      "        do j = 1, n\n"
      "          a(i, j) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  EXPECT_TRUE(rt.independent(f.loops[0], acc[0], acc[0]));
  EXPECT_TRUE(rt.independent(f.loops[1], acc[0], acc[0]));
}

TEST(RangeTestTest, SubscriptedSubscriptNotProven) {
  // ind(i) is opaque: the compile-time range test must give up — this is
  // the case the run-time PD test exists for (Section 3.5).
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      integer ind(100)\n"
      "      do i = 1, n\n"
      "        a(ind(i)) = 1.0\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  // One write access via ind(i); reads of ind are separate array accesses.
  const ArrayAccess* wa = nullptr;
  for (const auto& ac : acc)
    if (ac.is_write) wa = &ac;
  ASSERT_NE(wa, nullptr);
  EXPECT_FALSE(rt.independent(f.loops[0], *wa, *wa));
}

TEST(RangeTestTest, CoupledSubscriptsBeyondOneDistanceNotProven) {
  // a(i) = a(i - 2) has a genuine carried dependence; must not be proven.
  AccessFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 3, n\n"
      "        a(i) = a(i - 2)\n"
      "      end do\n"
      "      end\n");
  AnalysisManager am;
  RangeTest rt(polaris_opts(), am);
  const auto& acc = f.of("a");
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_FALSE(rt.independent(f.loops[0], acc[0], acc[1]));
}

}  // namespace
}  // namespace polaris
