#include "dep/ddtest.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

struct DriverFixture {
  std::unique_ptr<Program> prog;
  ProgramUnit* unit;
  std::vector<DoStmt*> loops;
  Diagnostics diags;

  explicit DriverFixture(const std::string& src)
      : prog(parse_program(src)) {
    unit = prog->main();
    loops = unit->stmts().loops();
  }

  LoopDepStats run(DoStmt* loop, const Options& opts,
                   SymbolSet exempt = {}) {
    AnalysisManager am;
    return test_loop_arrays(loop, opts, diags, exempt, "main/test", am);
  }
};

TEST(DdtestTest, IndependentLoopPolarisAndBaseline) {
  DriverFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  // Constant bounds: even the baseline proves it (Banerjee).
  auto base = f.run(f.loops[0], Options::baseline());
  EXPECT_TRUE(base.parallel());
  EXPECT_GT(base.by_banerjee + base.by_gcd, 0);
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_TRUE(pol.parallel());
}

TEST(DdtestTest, SymbolicBoundsNeedRangeTest) {
  DriverFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  // The strong-SIV test (symbolic-bounds capable, standard by 1996)
  // proves the self-pair even for the baseline.
  auto base = f.run(f.loops[0], Options::baseline());
  EXPECT_TRUE(base.parallel());
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_TRUE(pol.parallel());
  EXPECT_EQ(pol.by_rangetest + pol.by_banerjee + pol.by_gcd, pol.pairs);
}

TEST(DdtestTest, BaselineFailsOnNonlinearPolarisSucceeds) {
  DriverFixture f(
      "      program t\n"
      "      real a(10000)\n"
      "      do i = 0, m - 1\n"
      "        do j = 1, n\n"
      "          a(n*i + j) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto base = f.run(f.loops[0], Options::baseline());
  EXPECT_FALSE(base.parallel());  // n*i is not affine for 1996 compilers
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_TRUE(pol.parallel());
  EXPECT_GT(pol.by_rangetest, 0);
}

TEST(DdtestTest, TrueDependenceNeverProven) {
  DriverFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 2, 100\n"
      "        a(i) = a(i - 1)\n"
      "      end do\n"
      "      end\n");
  auto base = f.run(f.loops[0], Options::baseline());
  EXPECT_FALSE(base.parallel());
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_FALSE(pol.parallel());
  EXPECT_FALSE(pol.blockers.empty());
}

TEST(DdtestTest, ExemptArraysSkipped) {
  DriverFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 2, 100\n"
      "        a(i) = a(i - 1)\n"
      "      end do\n"
      "      end\n");
  SymbolSet exempt = {f.unit->symtab().lookup("a")};
  auto pol = f.run(f.loops[0], Options::polaris(), exempt);
  EXPECT_TRUE(pol.parallel());
  EXPECT_EQ(pol.pairs, 0);
}

TEST(DdtestTest, ReadOnlyArraysAreFree) {
  DriverFixture f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = b(i) + b(i + 1)\n"
      "      end do\n"
      "      end\n");
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_TRUE(pol.parallel());
}

TEST(DdtestTest, DiagnosticsMentionBlocker) {
  DriverFixture f(
      "      program t\n"
      "      real a(100)\n"
      "      integer ind(100)\n"
      "      do i = 1, 100\n"
      "        a(ind(i)) = 1.0\n"
      "      end do\n"
      "      end\n");
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_FALSE(pol.parallel());
  EXPECT_TRUE(f.diags.contains("assumed dependence"));
}

TEST(DdtestTest, StatsCountPairs) {
  DriverFixture f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = a(i) + 1.0\n"
      "        b(i) = a(i)\n"
      "      end do\n"
      "      end\n");
  auto pol = f.run(f.loops[0], Options::polaris());
  EXPECT_TRUE(pol.parallel());
  // a: write+2 reads -> pairs (w,w),(w,r1),(w,r2); b: write self-pair.
  EXPECT_EQ(pol.pairs, 4);
}

}  // namespace
}  // namespace polaris
