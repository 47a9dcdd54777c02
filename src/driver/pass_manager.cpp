#include "driver/pass_manager.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "analysis/purity.h"
#include "driver/compiler.h"
#include "ir/verifier.h"
#include "parser/printer.h"
#include "passes/constprop.h"
#include "passes/doall.h"
#include "passes/forwardsub.h"
#include "passes/induction.h"
#include "passes/inliner.h"
#include "passes/normalize.h"
#include "passes/privatization.h"
#include "passes/reduction.h"
#include "passes/strength.h"
#include "support/string_util.h"
#include "support/trace.h"
#include "symbolic/poly.h"

namespace polaris {

namespace {

class InlinePass : public Pass {
 public:
  std::string name() const override { return "inline"; }
  bool program_scope() const override { return true; }
  void run(ProgramUnit&, AnalysisManager&, PassContext& ctx) override {
    InlineResult r = inline_calls(ctx.program, ctx.opts,
                                  ctx.report.diagnostics);
    // Expansion splices statement clones carrying fresh process-global
    // ids into callers; renumbering here (the pass is serial and
    // whole-program) keeps every downstream `do#<id>` artifact a pure
    // function of the program.
    if (r.expanded != 0) ctx.program.renumber_ids();
    ctx.report.inlining.expanded += r.expanded;
    ctx.report.inlining.skipped += r.skipped;
  }
};

class ConstPropPass : public Pass {
 public:
  std::string name() const override { return "constprop"; }
  void run(ProgramUnit& unit, AnalysisManager&, PassContext&) override {
    propagate_constants(unit);
  }
};

class NormalizePass : public Pass {
 public:
  std::string name() const override { return "normalize"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    normalize_loops(unit, ctx.opts, ctx.report.diagnostics, am);
  }
};

class InductionPass : public Pass {
 public:
  std::string name() const override { return "induction"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    InductionResult r =
        substitute_inductions(unit, ctx.opts, ctx.report.diagnostics, am);
    ctx.report.induction.substituted += r.substituted;
    ctx.report.induction.rejected += r.rejected;
  }
};

class ForwardSubPass : public Pass {
 public:
  std::string name() const override { return "forwardsub"; }
  void run(ProgramUnit& unit, AnalysisManager&, PassContext& ctx) override {
    forward_substitute(unit, ctx.opts, ctx.report.diagnostics);
  }
};

class DoallPass : public Pass {
 public:
  std::string name() const override { return "doall"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    DoallSummary ds = mark_doall_loops(&ctx.program, unit, ctx.opts,
                                       ctx.report.diagnostics, am, ctx.pure);
    ctx.report.doall.loops += ds.loops;
    ctx.report.doall.parallel += ds.parallel;
    ctx.report.doall.speculative += ds.speculative;
  }
};

class StrengthPass : public Pass {
 public:
  std::string name() const override { return "strength"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    strength_reduce(unit, ctx.opts, ctx.report.diagnostics, am);
  }
};

/// Standalone reduction recognition (paper Section 3.2): flags reduction
/// statements on every loop without running the full DOALL driver.  In the
/// standard battery this runs as a sub-analysis of `doall`; registering it
/// separately lets `-passes=` ablations and fault-injection tests target
/// it directly.
class ReductionPass : public Pass {
 public:
  std::string name() const override { return "reduction"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    for (DoStmt* loop : unit.stmts().loops())
      recognize_reductions(loop, ctx.opts, ctx.report.diagnostics, am);
  }
};

/// Standalone privatization analysis (paper Section 3.4): records each
/// loop's private/lastvalue variables in its ParallelInfo without deciding
/// parallelism.  Like `reduction`, a sub-analysis of `doall` in the
/// standard battery.
class PrivatizationPass : public Pass {
 public:
  std::string name() const override { return "privatization"; }
  void run(ProgramUnit& unit, AnalysisManager& am,
           PassContext& ctx) override {
    for (DoStmt* loop : unit.stmts().loops())
      analyze_privatization(unit, loop, ctx.opts, ctx.report.diagnostics, am)
          .record(loop->par);
  }
};

struct Registration {
  const char* name;
  std::unique_ptr<Pass> (*make)();
};

template <typename P>
std::unique_ptr<Pass> make_pass() {
  return std::make_unique<P>();
}

/// In standard battery order; standard() instantiates exactly this list.
const Registration kRegistry[] = {
    {"inline", make_pass<InlinePass>},
    {"constprop", make_pass<ConstPropPass>},
    {"normalize", make_pass<NormalizePass>},
    {"induction", make_pass<InductionPass>},
    {"forwardsub", make_pass<ForwardSubPass>},
    {"doall", make_pass<DoallPass>},
    {"strength", make_pass<StrengthPass>},
};

/// Available to `-passes=` specs but not part of the standard battery
/// (there they run inside `doall`).
const Registration kExtraRegistry[] = {
    {"reduction", make_pass<ReductionPass>},
    {"privatization", make_pass<PrivatizationPass>},
};

std::unique_ptr<Pass> create_pass(const std::string& name) {
  for (const Registration& r : kRegistry)
    if (name == r.name) return r.make();
  for (const Registration& r : kExtraRegistry)
    if (name == r.name) return r.make();
  return nullptr;
}

}  // namespace

IrSize unit_ir_size(const ProgramUnit& unit) {
  IrSize size;
  for (const Statement* s : unit.stmts()) {
    ++size.stmts;
    for (const ExprPtr& e : s->expressions())
      walk(*e, [&](const Expression&) { ++size.exprs; });
  }
  return size;
}

void PassPipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

std::vector<std::string> PassPipeline::pass_names() const {
  std::vector<std::string> out;
  for (const auto& p : passes_) out.push_back(p->name());
  return out;
}

PassPipeline PassPipeline::standard() {
  PassPipeline pipeline;
  for (const Registration& r : kRegistry) pipeline.add(r.make());
  return pipeline;
}

PassPipeline PassPipeline::parse(const std::string& spec) {
  PassPipeline pipeline;
  for (const std::string& raw : split(spec, ',')) {
    std::string name = trim(raw);
    if (name.empty())
      throw UserError("empty pass name in pipeline spec '" + spec + "'");
    std::unique_ptr<Pass> pass = create_pass(name);
    if (pass == nullptr)
      throw UserError("unknown pass '" + name + "' in pipeline spec (known: " +
                      join(registered_passes(), ",") + ")");
    pipeline.add(std::move(pass));
  }
  if (pipeline.empty())
    throw UserError("empty pipeline spec");
  return pipeline;
}

PassPipeline PassPipeline::from_options(const Options& opts) {
  return opts.pipeline_spec.empty() ? standard() : parse(opts.pipeline_spec);
}

std::vector<std::string> PassPipeline::registered_passes() {
  std::vector<std::string> out;
  for (const Registration& r : kRegistry) out.emplace_back(r.name);
  for (const Registration& r : kExtraRegistry) out.emplace_back(r.name);
  return out;
}

const char* to_string(PassFailure::Kind kind) {
  switch (kind) {
    case PassFailure::Kind::Assertion: return "assertion";
    case PassFailure::Kind::Verifier: return "verifier";
    case PassFailure::Kind::Resource: return "resource";
  }
  return "?";
}

namespace {

constexpr std::size_t kProgramScope = static_cast<std::size_t>(-1);

/// The unit a pass runs on: the unit at `unit_index`, or the main unit
/// for a program-scope pass.
ProgramUnit& unit_at(const Program& program, std::size_t unit_index) {
  return unit_index == kProgramScope ? *program.main()
                                     : *program.units()[unit_index];
}

/// IR size of the unit at `unit_index`, or of every unit.
IrSize ir_size(const Program& program, std::size_t unit_index) {
  if (unit_index != kProgramScope)
    return unit_ir_size(*program.units()[unit_index]);
  IrSize total;
  for (const auto& unit : program.units()) {
    IrSize s = unit_ir_size(*unit);
    total.stmts += s.stmts;
    total.exprs += s.exprs;
  }
  return total;
}

/// Per-(unit, group) compilation state.  Everything a worker thread
/// touches while running one unit through a pass group lives here (or in
/// the unit itself); nothing is shared with other workers.  The shard is
/// also the unit of rollback: a failed pass attempt discards it whole.
struct UnitShard {
  CompileContext cc;
  CompileReport report;             ///< fragment: counters, diags, failures
  AtomTable atoms;
  std::vector<PassTiming> timings;  ///< one row per pass in the group
  std::exception_ptr error;         ///< set only in no-recover mode
};

/// A fresh shard: the parent's trace epoch and armed injection spec, the
/// group's resource limits, one timing row per pass of the group.  Reads
/// only parent state that stays fixed while a group runs, so workers may
/// call it concurrently.
std::unique_ptr<UnitShard> make_shard(const CompileContext& parent,
                                      const GovernorLimits& limits,
                                      std::size_t n_passes) {
  auto sh = std::make_unique<UnitShard>();
  sh->cc.trace().start_shard_of(parent.trace());
  if (parent.fault().armed()) sh->cc.fault().arm(parent.fault().spec());
  sh->cc.governor().configure(limits);
  sh->cc.bind_diagnostics(sh->report.diagnostics);
  sh->timings.resize(n_passes);
  return sh;
}

/// One failed (pass, unit) attempt.  Its shard is discarded, so the
/// record keeps what the group's replay re-emits at the pass's position:
/// the failure, the attempt's pass span, and the meters it ran up.
struct FailedAttempt {
  PassFailure::Kind kind = PassFailure::Kind::Assertion;
  GovernorTrigger trigger = GovernorTrigger::CompileFuel;
  std::string message;
  bool injected = false;
  double ms = 0.0;
  GovernorMeters meters;
  trace::TraceEvent span;    ///< tagged rolled_back; empty when not tracing
  std::exception_ptr error;  ///< what a no-recover compile throws
};

/// The IR a pass group received — one unit, or every unit for a
/// program-scope pass — cloned once at group start.  After a failed
/// attempt the live IR is restored from here and the group re-runs.
class Checkpoint {
 public:
  Checkpoint(const Program& program, std::size_t unit_index,
             const trace::TraceCollector& trace)
      : first_(unit_index == kProgramScope ? 0 : unit_index) {
    const std::uint64_t t0 = trace.now_us();
    const std::size_t end =
        unit_index == kProgramScope ? program.units().size() : first_ + 1;
    for (std::size_t k = first_; k < end; ++k)
      units_.push_back(program.units()[k]->clone(program.units()[k]->name()));
    if (trace.collecting())
      span_ = {.name = "checkpoint",
               .category = "fault",
               .ts_us = t0,
               .dur_us = trace.now_us() - t0,
               .args = {{"unit", unit_at(program, unit_index).name()}}};
  }

  /// Swaps fresh clones of the checkpointed units into `program`, so the
  /// checkpoint survives for a later replay.  (Passes never add or
  /// remove units.)
  void restore(Program& program) const {
    for (std::size_t k = 0; k < units_.size(); ++k)
      program.replace_unit_at(first_ + k,
                              units_[k]->clone(units_[k]->name()));
  }

  /// The checkpointed units as source: the `-no-recover` crash bundle.
  std::string source() const {
    std::ostringstream os;
    for (const auto& u : units_) print_unit(os, *u);
    return os.str();
  }

  /// The "checkpoint" span, recorded into every shard of the group.
  const trace::TraceEvent& span() const { return span_; }

 private:
  std::size_t first_;
  std::vector<std::unique_ptr<ProgramUnit>> units_;
  trace::TraceEvent span_;
};

/// One attempt of `pass` on its unit with the (possibly ladder-degraded)
/// switches `attempt_opts`; recovery and verify-each are read from
/// `ctx.opts`, the user's options.  The attempt's AnalysisManager is built
/// here and dies here; a completed attempt adds its accounting to
/// `timing` and `ctx.report.analysis`.  Returns the failure, if any: an
/// InternalError (genuine or injected), a ResourceBlowup that escaped the
/// conservative query boundaries, or a `-verify-each` violation.
std::optional<FailedAttempt> run_attempt(Pass& pass, std::size_t unit_index,
                                         PassTiming& timing, PassContext& ctx,
                                         const Options& attempt_opts) {
  CompileContext& cc = ctx.cc;
  ProgramUnit& unit = unit_at(ctx.program, unit_index);
  const GovernorMeters meters_before = cc.governor().meters();
  const std::uint64_t t0_us = cc.trace().now_us();
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<FailedAttempt> failure;
  double ms = 0.0;
  {
    trace::TraceSpan pass_span(&cc.trace(), pass.name(), "pass");
    pass_span.arg("unit", unit.name());
    cc.fault().set_scope(pass.name(), unit.name());
    cc.governor().set_scope(pass.name(), unit.name());
    // The ladder's attempt switches: the simplifier has no Options
    // parameter, so its depth limit rides on the governor for the
    // duration of this attempt (restored below whatever happens).
    cc.governor().set_simplify_depth_limit(attempt_opts.max_simplify_depth);
    struct AttemptGuard {
      CompileContext& cc;
      int restore_depth;
      ~AttemptGuard() {
        cc.governor().set_simplify_depth_limit(restore_depth);
        cc.governor().clear_scope();
      }
    } attempt_guard{cc, ctx.opts.max_simplify_depth};
    PassContext attempt_ctx{ctx.program, attempt_opts, ctx.report, cc,
                            ctx.pure};
    AnalysisManager am(&cc);
    try {
      pass.run(unit, am, attempt_ctx);
      // An armed injection that found fewer than N assertion sites in
      // this pass/unit still fires, at the unit boundary — so the recovery
      // path is exercisable for every pass regardless of its assertion
      // density.
      if (cc.fault().consume_boundary_fault())
        throw InternalError(detail::kInjectedCond, "unit-boundary", 0,
                            "deterministic fault injection at unit boundary");
    } catch (const ResourceBlowup& blow) {
      // A resource ceiling tripped and escaped the conservative query
      // boundaries (e.g. inside a transformation's own symbolic
      // rewriting, where a partial rewrite must not be kept).  Retryable.
      failure.emplace();
      failure->kind = PassFailure::Kind::Resource;
      failure->trigger = blow.trigger();
      failure->message = blow.what();
      failure->error = std::make_exception_ptr(InternalError(
          "resource-exhausted", pass.name(), 0, failure->message));
    } catch (const InternalError& e) {
      failure.emplace();
      failure->message = e.what();
      failure->injected = e.injected();
      failure->error = std::current_exception();
    }
    cc.fault().clear_scope();
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
    if (!failure.has_value() && ctx.opts.verify_each) {
      std::vector<VerifierViolation> vs =
          unit_index == kProgramScope ? verify_program(ctx.program, &cc)
                                      : verify_unit(unit, &cc);
      if (!vs.empty()) {
        failure.emplace();
        failure->kind = PassFailure::Kind::Verifier;
        failure->message = format_violations(vs);
        failure->error = std::make_exception_ptr(
            InternalError("verify-each", pass.name(), 0, failure->message));
      }
    }
    if (!failure.has_value()) {
      timing.analysis_queries += am.stats().queries;
      timing.analysis_hits += am.stats().hits;
      ctx.report.analysis += am.stats();
    }
  }
  timing.ms += ms;
  if (failure.has_value()) {
    failure->ms = ms;
    failure->meters = cc.governor().meters() - meters_before;
    if (cc.trace().collecting())
      failure->span = {.name = pass.name(),
                       .category = "pass",
                       .ts_us = t0_us,
                       .dur_us = cc.trace().now_us() - t0_us,
                       .args = {{"unit", unit.name()},
                                {"rolled_back", "true"}}};
  }
  return failure;
}

/// True when the failed attempt at ladder rung `rung` is retried on the
/// next rung; otherwise the failure is final and the pass is dropped.
/// Only resource failures ladder — assertion and verifier failures and
/// injected faults never do — and `-no-degrade` turns the ladder off.
bool retries(const FailedAttempt& f, std::size_t rung, const Options& opts) {
  return f.kind == PassFailure::Kind::Resource && opts.degradation_ladder &&
         rung + 1 < static_cast<std::size_t>(kLadderRungs);
}

/// Re-emits, at the pass's position in a replayed group, the record of
/// an attempt whose shard was discarded: its wall time and governor
/// meters, its span tagged rolled_back, and then either the ladder retry
/// or the final drop with its PassFailure and warning.
void replay_failed_attempt(const Pass& pass, const std::string& unit,
                           const FailedAttempt& f, std::size_t rung,
                           PassTiming& timing, PassContext& ctx) {
  CompileContext& cc = ctx.cc;
  timing.ms += f.ms;
  cc.governor().add_meters(f.meters);
  cc.trace().record(f.span);
  const std::string context = pass.name() + "/" + unit;
  const std::string trigger = to_string(f.trigger);
  DegradationEvent ev;
  ev.pass = pass.name();
  ev.unit = unit;
  ev.trigger = trigger;
  ev.detail = f.message;
  if (retries(f, rung, ctx.opts)) {
    const int next = static_cast<int>(rung) + 1;
    cc.trace().instant("ladder-retry", "governor",
                       {{"pass", pass.name()},
                        {"unit", unit},
                        {"trigger", trigger}});
    ev.action = std::string("retry-") + ladder_rung_name(next);
    ev.rung = next;
    cc.governor().record_event(std::move(ev));
    ctx.report.diagnostics.remark(
        RemarkKind::Analysis, "governor", context, "pass-degraded",
        "resource overrun [" + trigger + "]; retrying " + pass.name() +
            " with " + ladder_rung_name(next) + " switches",
        {{"pass", pass.name()},
         {"rung", ladder_rung_name(next)},
         {"trigger", trigger}});
    return;
  }
  cc.trace().instant("rollback", "fault",
                     {{"pass", pass.name()},
                      {"unit", unit},
                      {"kind", to_string(f.kind)}});
  ctx.report.diagnostics.warning(
      "fault-isolation", context,
      std::string(to_string(f.kind)) + (f.injected ? " (injected)" : "") +
          " failure; pass rolled back, continuing without it: " + f.message);
  ++timing.failures;
  ctx.report.failures.push_back(
      {pass.name(), unit, f.kind, f.message, f.injected, /*recovered=*/true});
  if (f.kind != PassFailure::Kind::Resource) return;
  ev.action = "drop-pass";
  ev.rung = static_cast<int>(rung);
  cc.governor().record_event(std::move(ev));
  ctx.report.diagnostics.remark(
      RemarkKind::Analysis, "governor", context, "pass-dropped",
      "resource overrun [" + trigger +
          "] persisted through every ladder rung; " + pass.name() +
          " dropped on " + unit,
      {{"pass", pass.name()}, {"trigger", trigger}});
}

/// One (pass, unit) within one run of its group.  Re-emits the attempts
/// that failed in earlier runs, then either skips the pass — its last
/// attempt failed for good — or attempts it on the next ladder rung.
/// Returns false when that attempt failed: it is appended to `failed`
/// and the caller replays the group.  A completed call records exactly
/// one PassTiming run and at most one PassFailure, whatever the rung
/// count; intermediate rungs surface as DegradationEvents and remarks.
bool run_one(Pass& pass, std::size_t unit_index, PassTiming& timing,
             PassContext& ctx, std::vector<FailedAttempt>& failed,
             const Checkpoint& checkpoint, const std::string& repro_spec) {
  CompileContext& cc = ctx.cc;
  const std::string unit = unit_at(ctx.program, unit_index).name();
  const std::size_t diags_before = ctx.report.diagnostics.all().size();
  const IrSize before = ir_size(ctx.program, unit_index);

  for (std::size_t rung = 0; rung < failed.size(); ++rung)
    replay_failed_attempt(pass, unit, failed[rung], rung, timing, ctx);
  const bool dropped =
      !failed.empty() && !retries(failed.back(), failed.size() - 1, ctx.opts);
  if (!dropped) {
    const Options attempt_opts =
        degraded_options(ctx.opts, static_cast<int>(failed.size()));
    std::optional<FailedAttempt> f =
        run_attempt(pass, unit_index, timing, ctx, attempt_opts);
    if (f.has_value()) {
      if (!ctx.opts.fault_recovery) {
        ctx.report.crash = CompileReport::CrashInfo{
            pass.name(), unit, checkpoint.source(), repro_spec};
        ctx.report.failures.push_back({pass.name(), unit, f->kind, f->message,
                                       f->injected, /*recovered=*/false});
        std::rethrow_exception(f->error);
      }
      failed.push_back(std::move(*f));
      return false;
    }
  }

  const IrSize after = ir_size(ctx.program, unit_index);
  ++timing.runs;
  timing.diags += static_cast<int>(ctx.report.diagnostics.all().size() -
                                   diags_before);
  timing.stmt_delta += after.stmts - before.stmts;
  timing.expr_delta += after.exprs - before.exprs;
  if (cc.trace().collecting()) {
    const AnalysisManager::Stats& s = ctx.report.analysis;
    cc.trace().counter("analysis-cache",
                       {{"queries", static_cast<std::uint64_t>(s.queries)},
                        {"hits", static_cast<std::uint64_t>(s.hits)}});
  }
  return true;
}

using PassList = std::vector<std::unique_ptr<Pass>>;

/// Runs passes [begin, end) on one unit — or, for a single program-scope
/// pass, on the whole program (kProgramScope).  The IR is checkpointed
/// once, then the group runs in a fresh shard until one run gets
/// through.  When a (pass, unit) attempt fails, that run's shard is
/// discarded, the IR is restored from the checkpoint, and the group
/// re-runs from the top with the pass dropped or on its next ladder rung.
/// The replay is exact because a pass is a pure function of its unit and
/// switches.  Returns the surviving shard; the checkpoint dies here, so
/// at most one per worker is alive at a time.
std::unique_ptr<UnitShard> run_group(const PassList& passes,
                                     std::size_t begin, std::size_t end,
                                     std::size_t unit_index, PassContext& ctx,
                                     const GovernorLimits& limits,
                                     const std::set<std::string>* pure,
                                     const std::string& repro_spec) {
  const Checkpoint checkpoint(ctx.program, unit_index, ctx.cc.trace());
  std::vector<std::vector<FailedAttempt>> failed(end - begin);
  for (;;) {
    std::unique_ptr<UnitShard> sh = make_shard(ctx.cc, limits, end - begin);
    bool replay = false;
    {
      // Bind the shard's context and atom table to this thread, so
      // `++statistic`, p_assert fault ticks, and polynomial interning all
      // land in shard state.
      sh->cc.trace().record(checkpoint.span());
      CompileContext::Scope cc_scope(&sh->cc);
      AtomTable::Scope atom_scope(&sh->atoms);
      PassContext shard_ctx{ctx.program, ctx.opts, sh->report, sh->cc, pure};
      try {
        for (std::size_t j = begin; j < end && !replay; ++j)
          replay = !run_one(*passes[j], unit_index, sh->timings[j - begin],
                            shard_ctx, failed[j - begin], checkpoint,
                            repro_spec);
      } catch (...) {
        // No-recover failures, and exceptions no pass boundary handles:
        // the shard is judged at merge.
        sh->error = std::current_exception();
      }
    }
    if (!replay) return sh;
    checkpoint.restore(ctx.program);
  }
}

/// Sums a shard's report fragment into the parent report.  Called in unit
/// index order, which fixes the order of diagnostics and failures.
void merge_report_fragment(CompileReport& into, CompileReport& shard) {
  into.inlining.expanded += shard.inlining.expanded;
  into.inlining.skipped += shard.inlining.skipped;
  into.induction.substituted += shard.induction.substituted;
  into.induction.rejected += shard.induction.rejected;
  into.doall.loops += shard.doall.loops;
  into.doall.parallel += shard.doall.parallel;
  into.doall.speculative += shard.doall.speculative;
  into.analysis += shard.analysis;
  into.diagnostics.append(shard.diagnostics);
  for (PassFailure& f : shard.failures) into.failures.push_back(std::move(f));
  if (shard.crash.has_value() && !into.crash.has_value())
    into.crash = std::move(shard.crash);
}

/// Runs one pass group — a program-scope pass alone, or a maximal run of
/// unit-scope passes fanned out over the units (every unit sees the whole
/// group in order, the seed driver's order) — and merges its shards into
/// the parent.  `first_row` is the group's first row in
/// `ctx.report.pass_timings`.
void run_pass_group(const PassList& passes, std::size_t begin,
                    std::size_t end, std::size_t first_row, PassContext& ctx,
                    const std::string& repro_spec) {
  Program& program = ctx.program;
  const bool whole_program = passes[begin]->program_scope();
  const std::size_t n_shards = whole_program ? 1 : program.units().size();

  // Purity is the one cross-unit read inside a unit-scope group (DOALL
  // asks whether calls serialize a loop).  Snapshot it here, while the IR
  // is quiescent — workers are about to start rewriting their units.
  std::set<std::string> pure_snapshot;
  const std::set<std::string>* pure = nullptr;
  if (!whole_program) {
    pure = &pure_snapshot;
    bool group_has_doall = false;
    for (std::size_t j = begin; j < end; ++j)
      if (passes[j]->name() == "doall") group_has_doall = true;
    if (group_has_doall && ctx.opts.pure_functions)
      pure_snapshot = pure_functions(program);
  }

  // Resource ceilings are per-shard, and the compile-fuel budget is an
  // equal split of the parent's *remaining* fuel — computed here, while
  // execution is still serial, so the shares (and with them every
  // degradation point) are identical at any `-jobs=N`.  A program-scope
  // pass's one shard gets all of it.
  GovernorLimits limits = limits_from_options(ctx.opts);
  limits.fuel = ctx.cc.governor().shard_fuel_share(n_shards);
  std::vector<std::unique_ptr<UnitShard>> shards(n_shards);
  auto run_shard = [&](std::size_t k) {
    shards[k] = run_group(passes, begin, end,
                          whole_program ? kProgramScope : k, ctx, limits,
                          pure, repro_spec);
  };

  const int jobs = static_cast<int>(std::min<std::size_t>(
      n_shards, static_cast<std::size_t>(std::max(1, ctx.opts.jobs))));
  if (jobs <= 1) {
    for (std::size_t k = 0; k < n_shards; ++k) {
      run_shard(k);
      // No-recover parity with the sequential driver: units after an
      // aborting one are never attempted.
      if (shards[k]->error != nullptr) break;
    }
  } else {
    // The compilation's persistent pool (shared with the parallel parse):
    // workers stay alive across pass groups, so a pipeline with many
    // unit-scope groups pays thread start-up once instead of per group,
    // and idle workers steal queued units instead of spinning on a shared
    // counter.
    ctx.cc.pool().run(n_shards, jobs, run_shard);
  }

  // Deterministic merge, strictly in unit index order: timing rows, the
  // report fragment (analysis accounting included), then the shard's
  // counters and trace events.  With recovery off the lowest failing unit
  // index wins — its shard is merged (it carries the crash bundle), later
  // shards are discarded, and the original exception resumes its flight.
  for (std::size_t k = 0; k < n_shards; ++k) {
    UnitShard& sh = *shards[k];
    for (std::size_t j = 0; j < end - begin; ++j) {
      PassTiming& dst = ctx.report.pass_timings[first_row + j];
      const PassTiming& src = sh.timings[j];
      dst.runs += src.runs;
      dst.ms += src.ms;
      dst.diags += src.diags;
      dst.stmt_delta += src.stmt_delta;
      dst.expr_delta += src.expr_delta;
      dst.analysis_queries += src.analysis_queries;
      dst.analysis_hits += src.analysis_hits;
      dst.failures += src.failures;
    }
    merge_report_fragment(ctx.report, sh.report);
    ctx.cc.merge_shard(sh.cc);
    if (sh.error != nullptr) std::rethrow_exception(sh.error);
  }
}

}  // namespace

void PassPipeline::run(PassContext& ctx) const {
  // Arm the compile's resource ceilings for the pipeline's duration: each
  // group splits the remaining fuel across its shards.  Disarmed again
  // after the last pass so post-pipeline work (final verification, report
  // assembly, printing) can never trip a ceiling it has no recovery for.
  ctx.cc.governor().configure(limits_from_options(ctx.opts));
  const std::size_t first_timing = ctx.report.pass_timings.size();
  for (const auto& pass : passes_) {
    PassTiming t;
    t.pass = pass->name();
    ctx.report.pass_timings.push_back(std::move(t));
  }

  const std::string repro_spec = ctx.opts.pipeline_spec.empty()
                                     ? join(pass_names(), ",")
                                     : ctx.opts.pipeline_spec;

  // Program-scope passes run alone; maximal runs of unit-scope passes are
  // grouped and fanned out over the units (jobs=1 takes the identical
  // shard path inline).
  std::size_t i = 0;
  while (i < passes_.size()) {
    std::size_t end = i + 1;
    if (!passes_[i]->program_scope())
      while (end < passes_.size() && !passes_[end]->program_scope()) ++end;
    run_pass_group(passes_, i, end, first_timing + i, ctx, repro_spec);
    i = end;
  }
  ctx.cc.governor().configure(GovernorLimits{});
}

}  // namespace polaris
