// Privatization tests, including the paper's Figure 4 (array region with
// GSA query MP >= M*P) and Figure 5 (BDNA gather/compress).
#include "passes/privatization.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  PrivatizationResult run(int loop_index = 0) {
    AnalysisManager am;
    return analyze_privatization(
        *unit, unit->stmts().loops()[static_cast<size_t>(loop_index)], opts,
        diags, am);
  }
  static bool has(const std::vector<Symbol*>& v, const std::string& name) {
    return std::any_of(v.begin(), v.end(), [&](Symbol* s) {
      return s->name() == name;
    });
  }
};

TEST(PrivatizationTest, ScalarTemporary) {
  Fix f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      do i = 1, 100\n"
      "        r = a(i)*2.0\n"
      "        b(i) = r + 1.0\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_scalars, "r"));
  EXPECT_TRUE(r.lastvalue_scalars.empty());
}

TEST(PrivatizationTest, UpwardExposedScalarBlocked) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        a(i) = r\n"
      "        r = a(i) + 1.0\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "r"));
  EXPECT_FALSE(Fix::has(r.private_scalars, "r"));
}

TEST(PrivatizationTest, LastValueForLiveOutScalar) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        r = a(i)\n"
      "        a(i) = r*2.0\n"
      "      end do\n"
      "      x = r\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_scalars, "r"));
  EXPECT_TRUE(Fix::has(r.lastvalue_scalars, "r"));
}

TEST(PrivatizationTest, ConditionallyAssignedLiveOutBlocked) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 100\n"
      "        if (a(i) .gt. 0.0) then\n"
      "          r = a(i)\n"
      "          a(i) = r + 1.0\n"
      "        end if\n"
      "      end do\n"
      "      x = r\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "r"));
  EXPECT_TRUE(f.diags.contains("conditionally assigned"));
}

TEST(PrivatizationTest, InnerLoopIndexIsPrivate) {
  Fix f(
      "      program t\n"
      "      real a(100,100)\n"
      "      do i = 1, 100\n"
      "        do j = 1, 100\n"
      "          a(i,j) = 0.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_scalars, "j"));
}

TEST(PrivatizationTest, SimpleWorkArray) {
  // w written then read in each iteration: a classic private work array.
  Fix f(
      "      program t\n"
      "      real a(100,100), w(100)\n"
      "      do i = 1, 100\n"
      "        do j = 1, 100\n"
      "          w(j) = a(i,j)*2.0\n"
      "        end do\n"
      "        do k = 1, 100\n"
      "          a(i,k) = w(k) + 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_arrays, "w"));
}

TEST(PrivatizationTest, ReadBeforeWriteArrayBlocked) {
  Fix f(
      "      program t\n"
      "      real a(100,100), w(100)\n"
      "      do i = 1, 100\n"
      "        do k = 1, 100\n"
      "          a(i,k) = w(k)\n"
      "        end do\n"
      "        do j = 1, 100\n"
      "          w(j) = a(i,j)\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "w"));
  EXPECT_TRUE(f.diags.contains("not covered"));
}

TEST(PrivatizationTest, PartialCoverageBlocked) {
  // Defines w(1:50) but reads w(1:100).
  Fix f(
      "      program t\n"
      "      real a(100,100), w(100)\n"
      "      do i = 1, 100\n"
      "        do j = 1, 50\n"
      "          w(j) = a(i,j)\n"
      "        end do\n"
      "        do k = 1, 100\n"
      "          a(i,k) = w(k)\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "w"));
}

TEST(PrivatizationTest, Figure4GsaQuery) {
  // Paper Figure 4: def region w(1:mp), use region w(1:m*p); coverage
  // needs the global fact MP = M*P, found by GSA backward substitution.
  Fix f(
      "      program t\n"
      "      real a(1000), b(1000), w(1000)\n"
      "      mp = m*p\n"
      "      do i = 1, 10\n"
      "        do j = 1, mp\n"
      "          w(j) = a(j)\n"
      "        end do\n"
      "        do k = 1, m*p\n"
      "          b(k) = b(k) + w(k)\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_arrays, "w"));
}

TEST(PrivatizationTest, Figure4FailsWithoutGsa) {
  Fix f(
      "      program t\n"
      "      real a(1000), b(1000), w(1000)\n"
      "      mp = m*p\n"
      "      do i = 1, 10\n"
      "        do j = 1, mp\n"
      "          w(j) = a(j)\n"
      "        end do\n"
      "        do k = 1, m*p\n"
      "          b(k) = b(k) + w(k)\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  f.opts.gsa_queries = false;
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "w"));
}

TEST(PrivatizationTest, Figure5BdnaGatherCompress) {
  // Paper Figure 5 (BDNA): A defined over (1:i-1), then gathered through
  // the compress-pattern index array IND(1:P) whose values are loop-K
  // indices in [1, i-1].
  Fix f(
      "      program bdna\n"
      "      real x(200,200), y(200,200), a(200)\n"
      "      integer ind(200), p\n"
      "      real r, w, z, rcuts\n"
      "      do i = 2, n\n"
      "        do j = 1, i - 1\n"
      "          ind(j) = 0\n"
      "          a(j) = x(i,j) - y(i,j)\n"
      "          r = a(j) + w\n"
      "          if (r .lt. rcuts) ind(j) = 1\n"
      "        end do\n"
      "        p = 0\n"
      "        do k = 1, i - 1\n"
      "          if (ind(k) .ne. 0) then\n"
      "            p = p + 1\n"
      "            ind(p) = k\n"
      "          end if\n"
      "        end do\n"
      "        do l = 1, p\n"
      "          m = ind(l)\n"
      "          x(i,l) = a(m) + z\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_scalars, "r"));
  EXPECT_TRUE(Fix::has(r.private_scalars, "p"));
  EXPECT_TRUE(Fix::has(r.private_scalars, "m"));
  EXPECT_TRUE(Fix::has(r.private_arrays, "ind"));
  EXPECT_TRUE(Fix::has(r.private_arrays, "a"))
      << "the monotonic gather range was not recognized";
}

TEST(PrivatizationTest, LiveOutArrayBlocked) {
  Fix f(
      "      program t\n"
      "      real a(100,100), w(100)\n"
      "      do i = 1, 100\n"
      "        do j = 1, 100\n"
      "          w(j) = a(i,j)\n"
      "        end do\n"
      "        do k = 1, 100\n"
      "          a(i,k) = w(k)\n"
      "        end do\n"
      "      end do\n"
      "      x = w(1)\n"
      "      end\n");
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "w"));
  EXPECT_TRUE(f.diags.contains("live after loop"));
}

TEST(PrivatizationTest, ArrayPrivatizationDisabled) {
  Fix f(
      "      program t\n"
      "      real a(100,100), w(100)\n"
      "      do i = 1, 100\n"
      "        do j = 1, 100\n"
      "          w(j) = a(i,j)\n"
      "        end do\n"
      "        do k = 1, 100\n"
      "          a(i,k) = w(k)\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  f.opts.array_privatization = false;
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.blocked, "w"));
}

}  // namespace
}  // namespace polaris

namespace polaris {
namespace {

TEST(PrivatizationTest, GuardConditionEnablesCoverage) {
  // Figure-4 style containment proven from a *control-flow* fact instead
  // of a GSA substitution: the guard if (mp .ge. m*p) dominates the nest.
  Fix f(
      "      program t\n"
      "      real a(1000), b(1000), w(1000)\n"
      "      if (mp .ge. m*p) then\n"
      "        do i = 1, 10\n"
      "          do j = 1, mp\n"
      "            w(j) = a(j)\n"
      "          end do\n"
      "          do k = 1, m*p\n"
      "            b(k) = b(k) + w(k)\n"
      "          end do\n"
      "        end do\n"
      "      end if\n"
      "      end\n");
  f.opts.gsa_queries = false;  // force the proof through the guard fact
  auto r = f.run();
  EXPECT_TRUE(Fix::has(r.private_arrays, "w"));
}

}  // namespace
}  // namespace polaris
