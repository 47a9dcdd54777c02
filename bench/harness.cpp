#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "driver/report_json.h"
#include "parser/parser.h"

namespace polaris::bench {

namespace {

/// POLARIS_BENCH_JSON=<path> appends one bench row per measurement: the
/// full `-report-json` compile-report document (pass timings, loop
/// outcomes with reason codes, remarks, statistics, cache accounting)
/// wrapped with the measurement's mode and processor count.
void emit_pass_json(CompilerMode mode, int processors,
                    const CompileReport& report) {
  JsonValue row = bench_row("suite-measure");
  row.set("mode", JsonValue::str(mode == CompilerMode::Polaris
                                     ? "polaris"
                                     : "baseline"));
  row.set("processors", JsonValue::num(processors));
  row.set("report", compile_report_to_json(report));
  append_bench_row_env(row);
}

}  // namespace

Measurement measure(const std::string& source, CompilerMode mode,
                    int processors, Options* custom_opts) {
  Measurement m;
  auto ref = parse_program(source);
  m.reference = run_program(*ref, MachineConfig{.processors = 1});

  Compiler compiler = custom_opts ? Compiler(*custom_opts) : Compiler(mode);
  auto prog = compiler.compile(source, &m.report);
  ExecutionConfig cfg = backend_config(mode, *prog, processors);
  m.codegen_factor = cfg.codegen_factor;
  m.run = run_program(*prog, cfg.machine);
  if (m.reference.output != m.run.output) {
    std::fprintf(stderr,
                 "FATAL: transformed output differs from reference\n");
    std::abort();
  }
  emit_pass_json(mode, processors, m.report);
  return m;
}

std::string bar(double value, double full_scale, int width) {
  int n = static_cast<int>(value / full_scale * width + 0.5);
  n = std::max(0, std::min(width, n));
  return std::string(static_cast<size_t>(n), '#');
}

void heading(const std::string& title) {
  std::string rule(72, '=');
  std::printf("%s\n%s\n%s\n", rule.c_str(), title.c_str(), rule.c_str());
}

}  // namespace polaris::bench
