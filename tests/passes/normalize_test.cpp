// Loop normalization tests: constant-step loops become unit-step with the
// index reconstructed; Fortran's final-index semantics preserved.
#include "passes/normalize.h"

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "parser/printer.h"

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
  int run() {
    AnalysisManager am;
    return normalize_loops(*prog->main(), opts, diags, am);
  }
  void expect_equivalent() {
    auto r = run_program(*prog, MachineConfig{});
    EXPECT_EQ(r.output, reference_output);
  }
  std::string source() { return to_source(*prog->main()); }
};

TEST(NormalizeTest, PositiveStride) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 99, 2\n"
      "        a(i) = i*1.0\n"
      "      end do\n"
      "      print *, a(1), a(99), a(2)\n"
      "      end\n");
  EXPECT_EQ(f.run(), 1);
  std::string src = f.source();
  EXPECT_NE(src.find("do i_nrm = 0, 49"), std::string::npos);
  EXPECT_NE(src.find("a(2*i_nrm+1)"), std::string::npos);
  f.expect_equivalent();
}

TEST(NormalizeTest, NegativeStride) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      do i = 10, 1, -1\n"
      "        a(i) = i*1.0\n"
      "      end do\n"
      "      print *, a(1), a(10)\n"
      "      end\n");
  EXPECT_EQ(f.run(), 1);
  f.expect_equivalent();
}

TEST(NormalizeTest, FinalIndexValuePreserved) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, 10, 3\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      print *, i\n"  // Fortran: 13 (first value past the limit)
      "      end\n");
  EXPECT_EQ(f.run(), 1);
  ASSERT_EQ(f.reference_output.size(), 1u);
  EXPECT_EQ(f.reference_output[0], "13");
  f.expect_equivalent();
}

TEST(NormalizeTest, ZeroTripLoopFinalValue) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      do i = 5, 1, 2\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      print *, i\n"  // zero trips: index stays at init = 5
      "      end\n");
  f.run();
  ASSERT_EQ(f.reference_output.size(), 1u);
  EXPECT_EQ(f.reference_output[0], "5");
  f.expect_equivalent();
}

TEST(NormalizeTest, UnitStepUntouched) {
  Fix f(
      "      program t\n"
      "      real a(10)\n"
      "      do i = 1, 10\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_EQ(f.run(), 0);
}

TEST(NormalizeTest, SymbolicStepUntouched) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      k = 2\n"
      "      do i = 1, 99, k\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  EXPECT_EQ(f.run(), 0);
}

TEST(NormalizeTest, BoundClobberedInBodySkipped) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      n = 50\n"
      "      do i = 1, n, 2\n"
      "        a(i) = 1.0\n"
      "        n = n - 1\n"
      "      end do\n"
      "      print *, n\n"
      "      end\n");
  EXPECT_EQ(f.run(), 0);  // n modified in body: unsafe to substitute
  f.expect_equivalent();
}

TEST(NormalizeTest, EnablesParallelizationOfStridedLoop) {
  // a(i) with stride 2 and symbolic upper bound: after normalization the
  // subscript is 2*i_nrm + 1 and the strong-SIV/range tests apply.
  const char* src =
      "      program t\n"
      "      parameter (n = 999)\n"
      "      real a(n)\n"
      "      do i = 1, n, 2\n"
      "        a(i) = i*0.5\n"
      "      end do\n"
      "      s = 0.0\n"
      "      do i = 1, n\n"
      "        s = s + a(i)\n"
      "      end do\n"
      "      print *, s\n"
      "      end\n";
  Compiler compiler(CompilerMode::Polaris);
  CompileReport report;
  auto prog = compiler.compile(src, &report);
  bool strided_parallel = false;
  for (const LoopReport& lr : report.loops)
    if (lr.parallel) strided_parallel = true;
  EXPECT_TRUE(strided_parallel);

  auto ref = parse_program(src);
  auto ref_run = run_program(*ref, MachineConfig{});
  MachineConfig cfg;
  cfg.processors = 8;
  auto run = run_program(*prog, cfg);
  EXPECT_EQ(ref_run.output, run.output);
}

TEST(NormalizeTest, NestedStridedLoops) {
  Fix f(
      "      program t\n"
      "      real g(30,30)\n"
      "      do i = 2, 30, 2\n"
      "        do j = 30, 3, -3\n"
      "          g(i,j) = i*10.0 + j\n"
      "        end do\n"
      "      end do\n"
      "      print *, g(2,30), g(30,3), g(16,15)\n"
      "      end\n");
  EXPECT_EQ(f.run(), 2);
  f.expect_equivalent();
}

}  // namespace
}  // namespace polaris
