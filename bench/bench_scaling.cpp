// Scaling curves (beyond the paper's single 8-processor point): speedup
// vs processor count for three representative codes — a regular 1-D sweep
// (swim), a privatization-bound 2-D sweep (arc2d) and the induction/range
// TRFD kernel — showing the saturation shapes the machine model produces.
//
// Plus the compiler's own scaling: a `-jobs={1,2,4,8}` sweep compiling all
// 16 suite codes as units of one program, measuring compile wall-clock.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "driver/report_json.h"
#include "harness.h"
#include "parser/parser.h"
#include "suite/suite.h"
#include "support/context.h"

namespace {

using namespace polaris;

/// Best-of-3 wall-clock of one full compile with the given options
/// (worker count and governor ceilings ride on `opts`).  `degradations` receives the last round's event count when
/// non-null.
double compile_wall_ms_opts(const std::string& source, const Options& opts,
                            std::size_t* degradations = nullptr) {
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    Compiler compiler(opts);
    CompileReport rep;
    auto t0 = std::chrono::steady_clock::now();
    compiler.compile(source, &rep);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (round == 0 || ms < best) best = ms;
    if (degradations != nullptr) *degradations = rep.degradations.size();
  }
  return best;
}

/// The jobs sweep's shape: the standard battery at `jobs` workers.
double compile_wall_ms(const std::string& source, int jobs) {
  Options opts = Options::polaris();
  opts.jobs = jobs;
  return compile_wall_ms_opts(source, opts);
}

/// POLARIS_BENCH_JSON=<path> appends one row per jobs value.
void emit_jobs_json(int jobs, double wall_ms, double speedup) {
  JsonValue row = bench_row("compile-jobs-sweep");
  row.set("codes", JsonValue::num(
                       static_cast<double>(benchmark_suite().size())));
  row.set("jobs", JsonValue::num(jobs));
  row.set("hardware_threads",
          JsonValue::num(static_cast<double>(
              std::thread::hardware_concurrency())));
  row.set("wall_ms", JsonValue::num(wall_ms));
  row.set("speedup", JsonValue::num(speedup));
  append_bench_row_env(row);
}

}  // namespace

int main() {
  using namespace polaris;
  bench::heading("Scaling: speedup vs processors (Polaris-compiled)");

  const char* names[] = {"swim", "arc2d", "trfd"};
  const int procs[] = {1, 2, 4, 8, 16, 32};

  std::printf("%-8s", "procs");
  for (const char* n : names) std::printf(" %9s", n);
  std::printf("\n%s\n", std::string(8 + 3 * 10, '-').c_str());

  for (int p : procs) {
    std::printf("%-8d", p);
    for (const char* n : names) {
      const BenchProgram& bp = suite_program(n);
      bench::Measurement m = bench::measure(bp.source, CompilerMode::Polaris, p);
      std::printf(" %9.2f", m.speedup());
    }
    std::printf("\n");
  }
  std::printf(
      "\nshape: near-linear while per-processor chunks dominate the\n"
      "fork/join and dispatch overheads, then saturating — the same\n"
      "Amdahl-plus-overhead behaviour the paper's SGI Challenge shows.\n\n");

  bench::heading("Compile scaling: -jobs sweep, 16-code suite as one program");

  const std::string combined = combined_suite_source();
  const int jobs_sweep[] = {1, 2, 4, 8};
  std::printf("(machine has %u hardware thread(s): worker counts beyond\n"
              "that add coordination overhead without concurrency)\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %12s %9s\n", "jobs", "wall ms", "speedup");
  std::printf("%s\n", std::string(31, '-').c_str());
  double base_ms = 0.0;
  for (int j : jobs_sweep) {
    double ms = compile_wall_ms(combined, j);
    if (j == 1) base_ms = ms;
    double speedup = ms == 0.0 ? 1.0 : base_ms / ms;
    std::printf("%-8d %12.3f %9.2f\n", j, ms, speedup);
    emit_jobs_json(j, ms, speedup);
  }
  std::printf(
      "\nper-unit pass groups and the per-unit parse fan the 16 program\n"
      "units out over worker threads; whole-program inlining and report\n"
      "assembly stay sequential, so the curve bends to that (now much\n"
      "smaller) serial fraction.\n\n");

  bench::heading("Frontend scaling: parallel per-unit parse, 17-unit source");

  // Parse-only wall clock: the unit splitter plus per-slice parses on the
  // worker pool, the piece that used to be the serial-fraction floor of
  // the -jobs sweep above.  Identical IR (ids included) at every count.
  std::printf("%-8s %12s %9s\n", "jobs", "wall ms", "speedup");
  std::printf("%s\n", std::string(31, '-').c_str());
  double parse_base_ms = 0.0;
  for (int j : jobs_sweep) {
    double best = 0.0;
    for (int round = 0; round < 5; ++round) {
      CompileContext cc;
      auto t0 = std::chrono::steady_clock::now();
      auto program = parse_program(combined, &cc, j);
      auto t1 = std::chrono::steady_clock::now();
      double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (round == 0 || ms < best) best = ms;
      if (program->units().empty()) std::abort();  // keep the parse live
    }
    if (j == 1) parse_base_ms = best;
    double speedup = best == 0.0 ? 1.0 : parse_base_ms / best;
    std::printf("%-8d %12.3f %9.2f\n", j, best, speedup);
    JsonValue row = bench_row("compile-parallel-parse");
    row.set("codes", JsonValue::num(
                         static_cast<double>(benchmark_suite().size())));
    row.set("jobs", JsonValue::num(j));
    row.set("hardware_threads",
            JsonValue::num(static_cast<double>(
                std::thread::hardware_concurrency())));
    row.set("wall_ms", JsonValue::num(best));
    row.set("speedup", JsonValue::num(speedup));
    append_bench_row_env(row);
  }
  std::printf(
      "\nthe splitter's single linear scan stays sequential; everything\n"
      "after it — lexing, parsing, symbol construction — runs per unit\n"
      "on the persistent pool, then ids are renumbered in textual order.\n\n");

  bench::heading("Resource governor: governed vs ungoverned suite compile");

  // The governed column runs the whole 16-unit program under moderately
  // hostile ceilings (enough to trip conservative bail-outs and some
  // ladder rungs); the overhead column is the governed check sites with
  // ceilings that never trip — the cost of the metering itself.
  Options ungoverned = Options::polaris();
  double free_ms = compile_wall_ms_opts(combined, ungoverned);

  Options headroom = ungoverned;
  headroom.compile_budget_ms = 60000.0;  // armed, never trips
  headroom.max_poly_terms = 1 << 20;
  headroom.max_atoms_per_unit = 1 << 20;
  double headroom_ms = compile_wall_ms_opts(combined, headroom);

  Options hostile = ungoverned;
  hostile.compile_budget_ms = 0.05;
  hostile.max_poly_terms = 8;
  std::size_t hostile_events = 0;
  double hostile_ms =
      compile_wall_ms_opts(combined, hostile, &hostile_events);

  std::printf("%-22s %12s %13s\n", "configuration", "wall ms",
              "degradations");
  std::printf("%s\n", std::string(49, '-').c_str());
  std::printf("%-22s %12.3f %13d\n", "ungoverned", free_ms, 0);
  std::printf("%-22s %12.3f %13d\n", "governed (headroom)", headroom_ms, 0);
  std::printf("%-22s %12.3f %13zu\n", "governed (hostile)", hostile_ms,
              hostile_events);
  std::printf(
      "\nheadroom vs ungoverned prices the *armed* meter: a thread-local\n"
      "governor lookup plus a saturating add per symbolic work site (the\n"
      "ungoverned default pays only an inactive-governor branch).  The\n"
      "hostile row stays at or below headroom despite ladder retries --\n"
      "bailed-out analyses do strictly less symbolic work.\n");

  {
    JsonValue row = bench_row("compile-governed");
    row.set("codes", JsonValue::num(
                         static_cast<double>(benchmark_suite().size())));
    row.set("jobs", JsonValue::num(1));
    row.set("wall_ms_ungoverned", JsonValue::num(free_ms));
    row.set("wall_ms_governed_headroom", JsonValue::num(headroom_ms));
    row.set("wall_ms_governed_hostile", JsonValue::num(hostile_ms));
    row.set("hostile_degradations",
            JsonValue::num(static_cast<double>(hostile_events)));
    append_bench_row_env(row);
  }
  return 0;
}
