// The pass-manager layer: the restructuring battery as data, not code.
//
// The seed hard-coded the Polaris pipeline as a fixed call sequence in
// Compiler::transform.  This layer reifies each transformation as a Pass
// with a uniform signature, assembles them into a PassPipeline — either
// the named standard battery or a textual spec such as
//
//     -passes=inline,constprop,normalize,induction,forwardsub,doall,strength
//
// — and runs the pipeline with per-pass instrumentation: wall time,
// diagnostics emitted, IR statement/expression deltas, and analysis-cache
// hit rates.  Ablations reorder or drop passes without code edits.  Each
// (pass, unit) run gets a fresh AnalysisManager, so cached flow facts
// never outlive the pass that computed them.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/context.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct CompileReport;  // driver/compiler.h; carries the pass result counters

/// Everything a pass may read or update besides the unit it transforms.
/// Every pass runs inside a shard, with a PassContext whose report and cc
/// are the shard's — a pass never shares mutable state with another
/// worker, and a failed pass leaves nothing behind in the parent.
struct PassContext {
  Program& program;        ///< whole program (inliner, purity analysis)
  const Options& opts;     ///< transformation switches
  CompileReport& report;   ///< result counters + diagnostics sink
  CompileContext& cc;      ///< stats/trace/fault state of this (shard's) compile
  /// Pure-function names, snapshotted by the pass manager before a
  /// unit-scope group fans out (purity reads every unit; workers are
  /// rewriting theirs).  Null outside unit-scope groups — compute on
  /// demand, the IR is quiescent.
  const std::set<std::string>* pure = nullptr;
};

/// One restructuring pass.  Unit-scope passes run once per program unit;
/// program-scope passes (the inliner) run once for the whole program and
/// receive the main unit as `unit`.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual bool program_scope() const { return false; }
  /// Transforms `unit`.  `am` is fresh for this run and dies with it.
  virtual void run(ProgramUnit& unit, AnalysisManager& am,
                   PassContext& ctx) = 0;
};

/// Per-pass instrumentation, accumulated over every unit the pass ran on.
struct PassTiming {
  std::string pass;
  int runs = 0;             ///< invocations (units, or 1 for program scope)
  double ms = 0.0;          ///< total wall time
  int diags = 0;            ///< diagnostics emitted
  long stmt_delta = 0;      ///< IR statements added minus removed
  long expr_delta = 0;      ///< IR expression nodes added minus removed
  std::uint64_t analysis_queries = 0;  ///< AnalysisManager lookups
  std::uint64_t analysis_hits = 0;     ///< answered from cache
  int failures = 0;         ///< invocations dropped (fault isolation)
};

/// One isolated pass failure.  With fault recovery on (the default), the
/// pass was dropped on that unit and compilation continued — the LRPD
/// shape: the program still compiles, just without this pass's
/// transformation on this unit.  With recovery off, the failure aborted
/// the compile (recovered = false) after stashing a repro bundle in
/// CompileReport::crash.
struct PassFailure {
  enum class Kind {
    Assertion,  ///< a p_assert fired inside the pass (or was injected)
    Verifier,   ///< the post-pass IR verifier found violations
    Resource,   ///< a ResourceGovernor ceiling tripped and escaped to the
                ///< pass boundary (every degradation-ladder rung failed)
  };
  std::string pass;
  std::string unit;
  Kind kind = Kind::Assertion;
  std::string message;
  bool injected = false;  ///< raised by deterministic fault injection
  bool recovered = true;
};

const char* to_string(PassFailure::Kind kind);

/// IR size metric used for the per-pass deltas.
struct IrSize {
  long stmts = 0;
  long exprs = 0;
};
IrSize unit_ir_size(const ProgramUnit& unit);

class PassPipeline {
 public:
  void add(std::unique_ptr<Pass> pass);
  bool empty() const { return passes_.empty(); }
  std::vector<std::string> pass_names() const;

  /// The standard Polaris battery.  Options::polaris() and
  /// Options::baseline() both resolve to this pipeline — the switches
  /// inside Options decide what each pass actually does.
  static PassPipeline standard();

  /// Builds a pipeline from a comma-separated spec ("constprop,doall").
  /// Throws UserError on an empty component or unknown pass name.
  static PassPipeline parse(const std::string& spec);

  /// The pipeline `opts` selects: parse(opts.pipeline_spec) when set,
  /// standard() otherwise.
  static PassPipeline from_options(const Options& opts);

  /// Registered pass names: the standard battery followed by the extra
  /// analysis passes available to `-passes=` specs only ("reduction",
  /// "privatization" — sub-analyses of `doall` in the standard battery).
  static std::vector<std::string> registered_passes();

  /// Runs the pipeline over `ctx.program`.  Consecutive unit-scope passes
  /// are grouped and applied unit-by-unit (each unit sees the whole group
  /// in order before the next unit starts — the order the seed driver
  /// used); a program-scope pass forms its own group.  Appends one
  /// PassTiming per pipeline position to `ctx.report.pass_timings` and
  /// adds every pass run's analysis accounting to `ctx.report.analysis`.
  ///
  /// Shards: every group runs in shards — one per unit, or one for a
  /// program-scope pass — each with a fresh CompileContext (trace epoch
  /// shared with the parent), CompileReport fragment and AtomTable, all
  /// bound to the worker thread while the passes run.  Each (pass, unit)
  /// attempt builds its own AnalysisManager on the shard's context.
  /// `ctx.opts.jobs` workers take units from the compilation's pool (1 =
  /// inline on the calling thread, same code path).  Shards merge into
  /// the parent in unit index order, so every report artifact is
  /// byte-identical regardless of worker count or completion order.
  ///
  /// Fault isolation: the shard is also the unit of rollback.  Each
  /// (unit, group) is checkpointed once — one clone of the unit, or of
  /// the whole program for a program-scope pass — and passes run on the
  /// live IR.  When a (pass, unit) attempt fails — an InternalError, an
  /// injected fault, a `-verify-each` violation, or a ResourceBlowup that
  /// escaped the conservative query boundaries — its shard is discarded,
  /// the unit is restored from the checkpoint, and the group re-runs from
  /// the top in a fresh shard with that pass dropped or on its next
  /// ladder rung.  At the pass's position the replay re-emits the failed
  /// attempts' record: their PassFailure, `fault-isolation` warning,
  /// `rollback`/`ladder-retry` trace instants, degradation events and
  /// remarks, and their wall time, fuel and trip counts.  So a faulted
  /// compile equals the pass-omitted compile by construction, plus that
  /// record.  With Options::fault_recovery off, the failure propagates
  /// instead after stashing a repro bundle (the unit as its group
  /// received it) in `ctx.report.crash`; the lowest-unit-index failure
  /// wins deterministically and later shards are discarded unmerged.
  ///
  /// Degradation ladder (ResourceGovernor): a resource failure does not
  /// drop the pass at once.  The (pass, unit) is retried on progressively
  /// cheaper option rungs (degraded_options: "reduced", then "floor")
  /// before the final drop; only the final drop records a PassFailure (so
  /// `failures.size()` counts dropped invocations, one per (pass, unit)),
  /// while each retry and the drop are recorded as DegradationEvents plus
  /// `pass-degraded` / `pass-dropped` remarks.  Assertion and verifier
  /// failures and injected faults never ladder, and `-no-degrade`
  /// (Options::degradation_ladder = false) drops at once.  Compile fuel
  /// (`-compile-budget-ms`) is split equally across a group's shards
  /// before workers start, keeping every degradation point — and thus
  /// every artifact — byte-identical at any `-jobs=N`.
  void run(PassContext& ctx) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace polaris
