// Ablation study (beyond the paper's figures): switch off one Polaris
// technique at a time and measure the speedup that remains on the suite
// program that depends on it.  This isolates each technique's
// contribution, mirroring the per-technique claims of Section 3.
#include <cstdio>

#include "harness.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "suite/suite.h"

int main() {
  using namespace polaris;
  bench::heading("Ablation: per-technique contribution (8 processors)");

  struct Ablation {
    const char* program;
    const char* option;   // switch turned off
    const char* label;
  };
  const Ablation ablations[] = {
      {"trfd", "induction_subst", "induction substitution"},
      {"trfd", "range_test", "range test"},
      {"ocean", "range_test", "range test"},
      {"arc2d", "array_privatization", "array privatization"},
      {"bdna", "array_privatization", "array privatization"},
      {"bdna", "gsa_queries", "GSA queries (monotonic proof)"},
      {"mdg", "histogram_reductions", "histogram reductions"},
      {"mdg", "reductions", "reductions entirely"},
      {"flo52", "array_privatization", "array privatization"},
      {"tfft2", "range_test", "range test"},
      {"hydro2d", "array_privatization", "array privatization"},
      {"appsp", "scalar_privatization", "scalar privatization"},
  };

  std::printf("%-9s %-34s %9s %9s %7s\n", "program", "technique removed",
              "full", "ablated", "ratio");
  std::printf("%s\n", std::string(72, '-').c_str());
  for (const Ablation& a : ablations) {
    const BenchProgram& p = suite_program(a.program);
    bench::Measurement full = bench::measure(p.source, CompilerMode::Polaris, 8);
    Options opts = Options::polaris();
    opts.set(a.option, false);
    bench::Measurement cut =
        bench::measure(p.source, CompilerMode::Polaris, 8, &opts);
    std::printf("%-9s %-34s %9.2f %9.2f %6.2fx\n", a.program, a.label,
                full.speedup(), cut.speedup(),
                full.speedup() / cut.speedup());
  }
  std::printf(
      "\nA ratio well above 1 means the program's parallelism depends on\n"
      "that technique, as the paper's per-code discussion predicts.\n\n");

  // Reduction implementation schemes (paper Section 3.2: blocked, private,
  // expanded) on the histogram-heavy mdg mini.
  bench::heading("Reduction schemes: blocked vs private vs expanded (mdg)");
  {
    const BenchProgram& p = suite_program("mdg");
    auto ref = polaris::parse_program(p.source);
    auto ref_run = run_program(*ref, MachineConfig{});
    std::printf("%-10s %12s %9s\n", "scheme", "time(units)", "speedup");
    struct S { const char* name; ReductionScheme s; };
    const S schemes[] = {
        {"blocked", ReductionScheme::Blocked},
        {"private", ReductionScheme::Private},
        {"expanded", ReductionScheme::Expanded},
    };
    for (const S& sch : schemes) {
      Compiler compiler(CompilerMode::Polaris);
      auto prog = compiler.compile(p.source);
      MachineConfig cfg;
      cfg.processors = 8;
      cfg.reduction_scheme = sch.s;
      RunResult run = run_program(*prog, cfg);
      std::printf("%-10s %12llu %9.2f\n", sch.name,
                  (unsigned long long)run.clock.parallel,
                  double(ref_run.clock.serial) / double(run.clock.parallel));
    }
    std::printf("\n");
  }

  // Static vs dynamic iteration scheduling on the triangular bdna loop.
  bench::heading("Scheduling: static block vs dynamic self-scheduling (bdna)");
  {
    const BenchProgram& p = suite_program("bdna");
    auto ref = polaris::parse_program(p.source);
    auto ref_run = run_program(*ref, MachineConfig{});
    for (auto sched : {MachineConfig::Scheduling::Static,
                       MachineConfig::Scheduling::Dynamic}) {
      Compiler compiler(CompilerMode::Polaris);
      auto prog = compiler.compile(p.source);
      MachineConfig cfg;
      cfg.processors = 8;
      cfg.scheduling = sched;
      RunResult run = run_program(*prog, cfg);
      std::printf("%-8s speedup %.2f\n",
                  sched == MachineConfig::Scheduling::Static ? "static"
                                                             : "dynamic",
                  double(ref_run.clock.serial) /
                      double(run.clock.parallel));
    }
    std::printf("\nThe triangular outer loop (work grows with i) benefits "
                "from\nself-scheduling, as 1990s DOALL runtimes observed.\n\n");
  }
  return 0;
}
