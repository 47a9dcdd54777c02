// The Polaris driver: full source-to-source restructuring pipeline.
//
//   parse -> inline expansion -> constant propagation -> induction
//   substitution -> DOALL recognition (reductions, privatization,
//   dependence tests) -> annotated source + per-loop report.
//
// The pipeline itself is assembled by the pass manager
// (driver/pass_manager.h): Options::pipeline_spec selects a custom
// `-passes=` battery, otherwise the standard one runs.  Each pass run
// caches its flow facts in its own AnalysisManager.
//
// Two modes reproduce the paper's comparison: CompilerMode::Polaris runs
// the full battery; CompilerMode::Baseline models the 1996 commercial
// compiler ("PFA"): linear dependence tests only, scalar privatization,
// simple inductions, no inlining, no range test, no array privatization.
// The baseline's stronger *back end* (loop interchange/unrolling/fusion)
// is modeled by backend_config(): a code-generation time factor that
// usually helps but hurts loops with short constant-trip inner loops —
// the paper's explanation for appsp and tomcatv (Section 4.2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "driver/pass_manager.h"
#include "ir/program.h"
#include "machine/machine.h"
#include "passes/doall.h"
#include "passes/induction.h"
#include "passes/inliner.h"
#include "support/diagnostics.h"
#include "support/options.h"
#include "support/statistic.h"

namespace polaris {

enum class CompilerMode { Polaris, Baseline };

struct LoopReport {
  std::string unit;
  std::string loop;
  int depth = 0;
  bool parallel = false;
  bool speculative = false;
  std::string serial_reason;
  /// Machine-readable code behind serial_reason ("carried-dependence",
  /// "loop-io", ...); non-empty for every non-parallel loop.
  std::string reason_code;
  // Dependence-test accounting (pairs tested / resolved per test).
  int dep_pairs = 0;
  int dep_by_gcd = 0;
  int dep_by_banerjee = 0;
  int dep_by_rangetest = 0;
};

struct CompileReport {
  InlineResult inlining;
  InductionResult induction;
  DoallSummary doall;
  std::vector<LoopReport> loops;
  Diagnostics diagnostics;
  std::string annotated_source;  ///< the source-to-source output
  /// Per-pass instrumentation in pipeline order (wall time, diagnostics,
  /// IR deltas, analysis-cache hit rates) — the `-timing` CLI payload.
  std::vector<PassTiming> pass_timings;
  /// AnalysisManager accounting summed over every pass run.
  AnalysisManager::Stats analysis;
  /// Per-compilation deltas of every POLARIS_STATISTIC counter that moved
  /// during this compile (the `-stats` payload, embedded in report JSON).
  std::vector<StatisticValue> stats;
  /// Pass invocations that faulted.  With fault recovery (default) each
  /// was rolled back and the compile continued; the driver reports them as
  /// warnings and still exits 0.
  std::vector<PassFailure> failures;
  /// Resource-governed degradation steps, in deterministic (unit-order)
  /// sequence: ladder retries, final pass drops, and aggregated
  /// conservative query bail-outs (see support/governor.h).  Empty for an
  /// ungoverned compile.
  std::vector<DegradationEvent> degradations;
  /// Governor fuel accounting for this compile: the installed limit, the
  /// ticks this compile burned, and how often each ceiling tripped.  All
  /// zero for an ungoverned compile; all deterministic fuel-site counts
  /// (jobs-invariant).
  struct ResourceUsage {
    std::uint64_t fuel_limit = 0;
    std::uint64_t fuel_spent = 0;
    std::uint64_t trips_compile_fuel = 0;
    std::uint64_t trips_poly_terms = 0;
    std::uint64_t trips_atom_ceiling = 0;
  };
  ResourceUsage resource;

  /// Repro context stashed just before an InternalError escapes recovery;
  /// the CLI writes it to polaris-crash-<unit>.f for offline debugging.
  struct CrashInfo {
    std::string pass;         ///< failing pass
    std::string unit;         ///< failing unit
    std::string unit_source;  ///< the unit as its pass group received it
    std::string passes_spec;  ///< `-passes=` spec reproducing the pipeline
  };
  std::optional<CrashInfo> crash;
};

class Compiler {
 public:
  explicit Compiler(Options opts) : opts_(std::move(opts)) {}
  explicit Compiler(CompilerMode mode)
      : opts_(mode == CompilerMode::Polaris ? Options::polaris()
                                            : Options::baseline()) {}

  const Options& options() const { return opts_; }
  Options& options() { return opts_; }

  /// Parses and restructures `source`.  The returned program carries the
  /// DOALL annotations the execution engine consumes.  The two-argument
  /// form owns a CompileContext for the duration of the call; pass `cc`
  /// to keep the compilation's statistics, trace, and fault-injection
  /// state alive afterwards (tests inspect it; embedders aggregate it).
  std::unique_ptr<Program> compile(const std::string& source,
                                   CompileReport* report = nullptr);
  std::unique_ptr<Program> compile(const std::string& source,
                                   CompileReport* report, CompileContext& cc);

  /// Restructures an already-parsed program in place.
  void transform(Program& program, CompileReport* report = nullptr);
  void transform(Program& program, CompileReport* report, CompileContext& cc);

 private:
  Options opts_;
};

/// Execution-time configuration for a compiled program under a backend.
struct ExecutionConfig {
  MachineConfig machine;
  /// Multiplier on the compiled program's execution time modeling backend
  /// code quality (1.0 for the Polaris-generated code).
  double codegen_factor = 1.0;
};

/// Models the paper's PFA back end: inspects the program's parallel loops
/// and returns a factor < 1 when aggressive restructuring helps (long
/// regular loops) or > 1 when it backfires (short constant-trip inner
/// loops, cf. appsp/tomcatv).
ExecutionConfig backend_config(CompilerMode mode, const Program& program,
                               int processors);

}  // namespace polaris
