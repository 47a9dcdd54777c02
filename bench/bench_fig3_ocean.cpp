// Figure 3 reproduction: the simplified FTRVMT/109 nest from OCEAN with
// the nonlinear term 258*x*j.  Shows that the linear battery (baseline)
// cannot parallelize any loop of the nest while the range test — with the
// loop-order permutation the paper describes — proves all three parallel.
#include <cstdio>

#include "dep/ddtest.h"
#include "harness.h"
#include "parser/parser.h"
#include "suite/suite.h"

int main() {
  using namespace polaris;
  bench::heading(
      "Figure 3: Simplified loop nest FTRVMT/109 (nonlinear subscripts)");

  // The bare nest for per-loop verdicts.
  const char* nest_src =
      "      program ftrvmt\n"
      "      parameter (x = 4)\n"
      "      integer z(0:3)\n"
      "      real a(35000)\n"
      "      do k = 0, x - 1\n"
      "        do j = 0, z(k)\n"
      "          do i = 0, 128\n"
      "            a(258*x*j + 129*k + i + 1) = 1.0\n"
      "            a(258*x*j + 129*k + i + 1 + 129*x) = 2.0\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      end\n";
  auto prog = parse_program(nest_src);
  auto loops = prog->main()->stmts().loops();
  const char* names[] = {"K (outermost)", "J (middle)", "I (innermost)"};

  std::printf("per-loop carried-dependence verdicts:\n");
  std::printf("  %-16s %-22s %-22s\n", "loop", "linear tests only",
              "with range test");
  for (size_t l = 0; l < 3; ++l) {
    Diagnostics diags;
    Options lin = Options::baseline();
    SymbolSet none;
    AnalysisManager lin_am;
    LoopDepStats base =
        test_loop_arrays(loops[l], lin, diags, none, "ftrvmt", lin_am);
    Options full = Options::polaris();
    AnalysisManager full_am;
    LoopDepStats pol =
        test_loop_arrays(loops[l], full, diags, none, "ftrvmt", full_am);
    std::printf("  %-16s %-22s %-22s\n", names[l],
                base.parallel() ? "independent" : "assumed dependence",
                pol.parallel() ? "independent (rangetest)"
                               : "assumed dependence");
  }

  // Whole mini-application speedups.
  const BenchProgram& ocean = suite_program("ocean");
  bench::Measurement pol = bench::measure(ocean.source, CompilerMode::Polaris, 8);
  bench::Measurement base =
      bench::measure(ocean.source, CompilerMode::Baseline, 8);
  std::printf("\nocean mini-application, 8 processors:\n");
  std::printf("  Polaris  speedup %.2f\n", pol.speedup());
  std::printf("  Baseline speedup %.2f\n\n", base.speedup());
  return 0;
}
