// The three workloads.  Each is a closed loop with one client: set-up
// (inputs, reference outputs, warm-up), then ops back to back until the
// run's time is up, with the machine-speed probe run before every op.
#pragma once

#include <cstdint>
#include <string>

#include "probe.h"
#include "report.h"

namespace perfbench {

struct Config {
  std::string workload;     ///< compile-suite | suite-exec | speculative-pdtest
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       ///< per-layer run: traced ops alternate with untraced
  std::string data_dir;     ///< holds expected/suite_p1.txt
  std::string trace_out;    ///< Chrome trace JSON path (trace runs)
  bool corrupt_expected = false;  ///< self-test: one expected line is wrong
  CpuPair cpus;             ///< the harness thread is pinned to cpus.main
};

struct Result {
  Metrics metrics;  ///< end-to-end (trace off) or per-layer (trace on)
  Metrics raw;      ///< the same timings before probe normalization
  long attempted = 0;
  long failed = 0;
};

/// Runs one workload; false (with `error` set) on a usage or set-up error.
bool run_workload(const Config& cfg, Result* out, std::string* error);

}  // namespace perfbench
