// Suite-compile wall-clock probe: best-of-N in-process compile of the
// combined 16-code suite at -jobs=1, printed as one number.  Built for
// interleaved A/B runs against another checkout's binary (alternate the
// two binaries in one shell loop and compare bests/medians) — this
// 1-CPU container's timing drifts by tens of percent across minutes, so
// only paired measurements mean anything.  Usage: bench_abcheck [rounds].
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "driver/compiler.h"
#include "suite/suite.h"

using namespace polaris;

int main(int argc, char** argv) {
  int rounds = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::string combined = combined_suite_source();
  Options opts = Options::polaris();
  opts.jobs = 1;
  double best = 1e30;
  for (int i = 0; i < rounds; ++i) {
    Compiler compiler(opts);
    auto t0 = std::chrono::steady_clock::now();
    auto prog = compiler.compile(combined);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    best = std::min(best, ms);
  }
  std::printf("%.3f\n", best);
  return 0;
}
