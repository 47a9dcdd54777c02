// Figure 6 reproduction: speedup and potential slowdown of the PD test on
// a TRACK NLFILT/300-style loop.  The loop's access pattern goes through a
// subscript array computed at run time; it is fully parallel in 90% of its
// invocations (18 of 20 strides are permutations, 2 collide).  For each
// processor count the harness reports:
//   - speedup including both the parallel and serial (failed) instances,
//   - the potential slowdown (T_seq + T_pdt)/T_seq the paper plots —
//     the price that WOULD be paid if every test failed.
#include <cstdio>

#include "harness.h"
#include "parser/parser.h"
#include "suite/suite.h"

int main() {
  using namespace polaris;
  bench::heading(
      "Figure 6: PD test on TRACK NLFILT/300 (90% parallel invocations)");

  Options opts = Options::polaris();
  opts.runtime_pd_test = true;

  // Reference sequential execution.
  auto ref = parse_program(kTrackSource);
  RunResult ref_run = run_program(*ref, MachineConfig{});
  double t_seq = static_cast<double>(ref_run.clock.serial);

  std::printf("%5s | %8s | %10s | %8s | %18s\n", "procs", "speedup",
              "attempts", "failed", "potential slowdown");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (int p : {1, 2, 3, 4, 5, 6, 7, 8}) {
    Compiler compiler(opts);
    CompileReport report;
    auto prog = compiler.compile(kTrackSource);
    MachineConfig cfg;
    cfg.processors = p;
    RunResult run = run_program(*prog, cfg);
    if (run.output != ref_run.output) {
      std::fprintf(stderr, "FATAL: speculative execution changed output\n");
      return 1;
    }
    double speedup =
        t_seq / static_cast<double>(run.clock.parallel);
    // Potential slowdown: the relative cost if parallelization had failed
    // everywhere — sequential time plus the (parallel) PD test overhead.
    double t_pdt = static_cast<double>(run.pd_test_cost);
    double slowdown = p == 1 ? 1.0 : (t_seq + t_pdt) / t_seq;
    std::printf("%5d | %8.2f | %10d | %8d | %18.3f\n", p, speedup,
                run.speculative_attempts, run.speculative_failures,
                slowdown);
  }
  std::printf(
      "\nshape check: speedup grows with processors despite the 10%% of\n"
      "invocations that fail the test and re-execute serially; the\n"
      "potential slowdown stays a small factor and shrinks with p\n"
      "(the PD test itself is fully parallel, O(a/p + log p)).\n\n");
  return 0;
}
