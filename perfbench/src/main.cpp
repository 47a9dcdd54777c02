// Polaris end-to-end benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--trace-out FILE] [--corrupt-expected]
//   perfbench --print-expected
//
// Prints the result object as the last line of stdout and the same
// timings before probe normalization as the last line of stderr.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inputs.h"
#include "probe.h"
#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--trace-out FILE] "
               "[--corrupt-expected] | --print-expected\n",
               msg);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print-expected") {
      std::fputs(perfbench::render_expected().c_str(), stdout);
      return 0;
    }
    if (arg == "--corrupt-expected") {
      cfg.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double num = 0.0;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_number(value, &num) || num < 0)
        return usage("--seed takes a non-negative integer");
      cfg.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_number(value, &num) || num <= 0)
        return usage("--seconds takes a positive number");
      cfg.seconds = num;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      cfg.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--data-dir") {
      cfg.data_dir = value;
    } else if (arg == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (cfg.data_dir.empty()) cfg.data_dir = "perfbench";

  cfg.cpus = perfbench::pick_cpus();
  perfbench::pin_thread(cfg.cpus, false);
  perfbench::Result result;
  std::string error;
  if (!perfbench::run_workload(cfg, &result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", result.raw.values_json().c_str());
  std::printf("%s\n",
              result.metrics.result_json(result.attempted, result.failed)
                  .c_str());
  return 0;
}
