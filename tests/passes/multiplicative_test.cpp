// Multiplicative (geometric) induction variables (paper Section 3.2: "
// multiplicative inductions are solved as well").  K = K*c recurrences are
// rewritten through a counter, closed-formed by the additive solver, and
// verified semantically.
#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "passes/induction.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  Diagnostics diags;
  Options opts = Options::polaris();
  std::vector<std::string> reference_output;

  explicit Fix(const std::string& src) : prog(parse_program(src)) {
    auto ref = parse_program(src);
    reference_output = run_program(*ref, MachineConfig{}).output;
  }
  InductionResult run() {
    AnalysisManager am;
    return substitute_inductions(*prog->main(), opts, diags, am);
  }
  void expect_equivalent() {
    auto r = run_program(*prog, MachineConfig{});
    EXPECT_EQ(r.output, reference_output);
  }
  std::string source() { return to_source(*prog->main()); }
};

TEST(MultiplicativeTest, SimpleGeometricSeries) {
  Fix f(
      "      program t\n"
      "      real a(12)\n"
      "      integer k\n"
      "      k = 1\n"
      "      do i = 1, 12\n"
      "        k = k*2\n"
      "        a(i) = k*0.001\n"
      "      end do\n"
      "      print *, a(1), a(12)\n"
      "      end\n");
  auto r = f.run();
  EXPECT_GE(r.substituted, 2);  // the rewrite + the counter
  std::string src = f.source();
  EXPECT_EQ(src.find("k = k*2"), std::string::npos);
  EXPECT_NE(src.find("2**"), std::string::npos);
  f.expect_equivalent();
}

TEST(MultiplicativeTest, LastValueWhenLiveOut) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      integer k\n"
      "      k = 3\n"
      "      do i = 1, 5\n"
      "        k = k*2\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      print *, k\n"  // 3*2^5 = 96
      "      end\n");
  f.run();
  f.expect_equivalent();
  ASSERT_FALSE(f.reference_output.empty());
  EXPECT_EQ(f.reference_output[0], "96");
}

TEST(MultiplicativeTest, RealFactor) {
  Fix f(
      "      program t\n"
      "      real decay(20)\n"
      "      w = 1.0\n"
      "      do i = 1, 20\n"
      "        w = w*0.5\n"
      "        decay(i) = w\n"
      "      end do\n"
      "      print *, decay(1), decay(20)\n"
      "      end\n");
  f.run();
  f.expect_equivalent();
}

TEST(MultiplicativeTest, MixedAdditiveMultiplicativeRejected) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      integer k\n"
      "      k = 1\n"
      "      do i = 1, 10\n"
      "        k = k*2\n"
      "        k = k + 1\n"
      "        a(i) = k*0.01\n"
      "      end do\n"
      "      print *, a(10)\n"
      "      end\n");
  auto r = f.run();
  std::string src = f.source();
  EXPECT_NE(src.find("k = k*2"), std::string::npos);  // untouched
  f.expect_equivalent();
  (void)r;
}

TEST(MultiplicativeTest, ConditionalScaleRejected) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      integer k\n"
      "      k = 1\n"
      "      do i = 1, 10\n"
      "        if (i .gt. 5) then\n"
      "          k = k*2\n"
      "        end if\n"
      "        a(i) = k*0.01\n"
      "      end do\n"
      "      print *, a(10)\n"
      "      end\n");
  f.run();
  std::string src = f.source();
  EXPECT_NE(src.find("k = k*2"), std::string::npos);
  f.expect_equivalent();
}

TEST(MultiplicativeTest, DisabledInBaseline) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      integer k\n"
      "      k = 1\n"
      "      do i = 1, 10\n"
      "        k = k*2\n"
      "        a(i) = k*0.01\n"
      "      end do\n"
      "      print *, a(10)\n"
      "      end\n");
  f.opts = Options::baseline();
  f.run();
  std::string src = f.source();
  EXPECT_NE(src.find("k = k*2"), std::string::npos);
  f.expect_equivalent();
}

TEST(MultiplicativeTest, FftStageRecurrenceEndToEnd) {
  // The tfft2-style le = le*2 stage recurrence: after the rewrite the
  // stage loop's only scalar recurrence is the counter, which the
  // additive solver removes; the bounds become exponential expressions
  // the interpreter evaluates exactly.
  const char* src =
      "      program t\n"
      "      parameter (n = 64)\n"
      "      real xr(n)\n"
      "      integer le\n"
      "      do i = 1, n\n"
      "        xr(i) = mod(i, 5)*0.5\n"
      "      end do\n"
      "      le = 1\n"
      "      do l = 1, 4\n"
      "        le = le*2\n"
      "        do j = 0, n/le - 1\n"
      "          do k = 0, le/2 - 1\n"
      "            xr(j*le + k + 1) = xr(j*le + k + 1)\n"
      "     &        + xr(j*le + k + 1 + le/2)*0.5\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      s = 0.0\n"
      "      do i = 1, n\n"
      "        s = s + xr(i)\n"
      "      end do\n"
      "      print *, s\n"
      "      end\n";
  auto ref = parse_program(src);
  auto ref_run = run_program(*ref, MachineConfig{});
  Compiler compiler(CompilerMode::Polaris);
  auto prog = compiler.compile(src);
  MachineConfig cfg;
  cfg.processors = 8;
  auto run = run_program(*prog, cfg);
  EXPECT_EQ(ref_run.output, run.output);
}

}  // namespace
}  // namespace polaris
