#include "driver/pass_manager.h"

#include <chrono>
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
#include "support/statistic.h"
#include "support/string_util.h"
#include "support/trace.h"
#include "symbolic/poly.h"

namespace polaris {

namespace {

/// Preserve everything when nothing changed, nothing when the IR did.
PreservedAnalyses preserved_if_unchanged(int changes) {
  return changes == 0 ? PreservedAnalyses::all() : PreservedAnalyses::none();
}

class InlinePass : public Pass {
 public:
  std::string name() const override { return "inline"; }
  bool program_scope() const override { return true; }
  PreservedAnalyses run(ProgramUnit&, AnalysisManager&,
                        PassContext& ctx) override {
    InlineResult r = inline_calls(ctx.program, ctx.opts,
                                  ctx.report.diagnostics);
    // Expansion splices statement clones carrying fresh process-global
    // ids into callers; renumbering here (the pass is serial and
    // whole-program) keeps every downstream `do#<id>` artifact a pure
    // function of the program.
    if (r.expanded != 0) ctx.program.renumber_ids();
    ctx.report.inlining.expanded += r.expanded;
    ctx.report.inlining.skipped += r.skipped;
    return preserved_if_unchanged(r.expanded);
  }
};

class ConstPropPass : public Pass {
 public:
  std::string name() const override { return "constprop"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager&,
                        PassContext&) override {
    return preserved_if_unchanged(propagate_constants(unit));
  }
};

class NormalizePass : public Pass {
 public:
  std::string name() const override { return "normalize"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    return preserved_if_unchanged(
        normalize_loops(unit, ctx.opts, ctx.report.diagnostics, am));
  }
};

class InductionPass : public Pass {
 public:
  std::string name() const override { return "induction"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    InductionResult r =
        substitute_inductions(unit, ctx.opts, ctx.report.diagnostics, am);
    ctx.report.induction.substituted += r.substituted;
    ctx.report.induction.rejected += r.rejected;
    return preserved_if_unchanged(r.substituted);
  }
};

class ForwardSubPass : public Pass {
 public:
  std::string name() const override { return "forwardsub"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager&,
                        PassContext& ctx) override {
    return preserved_if_unchanged(
        forward_substitute(unit, ctx.opts, ctx.report.diagnostics));
  }
};

class DoallPass : public Pass {
 public:
  std::string name() const override { return "doall"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    DoallSummary ds = mark_doall_loops(&ctx.program, unit, ctx.opts,
                                       ctx.report.diagnostics, am, ctx.pure);
    ctx.report.doall.loops += ds.loops;
    ctx.report.doall.parallel += ds.parallel;
    ctx.report.doall.speculative += ds.speculative;
    // Annotation only: ParallelInfo and reduction flags do not affect any
    // cached flow fact.
    return PreservedAnalyses::all();
  }
};

class StrengthPass : public Pass {
 public:
  std::string name() const override { return "strength"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    return preserved_if_unchanged(
        strength_reduce(unit, ctx.opts, ctx.report.diagnostics, am));
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
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    for (DoStmt* loop : unit.stmts().loops())
      recognize_reductions(loop, ctx.opts, ctx.report.diagnostics, am);
    // Statement flags only; no cached flow fact depends on them.
    return PreservedAnalyses::all();
  }
};

/// Standalone privatization analysis (paper Section 3.4): records each
/// loop's private/lastvalue variables in its ParallelInfo without deciding
/// parallelism.  Like `reduction`, a sub-analysis of `doall` in the
/// standard battery.
class PrivatizationPass : public Pass {
 public:
  std::string name() const override { return "privatization"; }
  PreservedAnalyses run(ProgramUnit& unit, AnalysisManager& am,
                        PassContext& ctx) override {
    for (DoStmt* loop : unit.stmts().loops())
      analyze_privatization(unit, loop, ctx.opts, ctx.report.diagnostics, am)
          .record(loop->par);
    return PreservedAnalyses::all();
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

IrSize program_ir_size(const Program& program) {
  IrSize total;
  for (const auto& unit : program.units()) {
    IrSize s = unit_ir_size(*unit);
    total.stmts += s.stmts;
    total.exprs += s.exprs;
  }
  return total;
}

}  // namespace

IrSize unit_ir_size(const ProgramUnit& unit) {
  IrSize size;
  for (const Statement* s : unit.stmts()) {
    ++size.stmts;
    for (const Expression* e : s->expressions())
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

/// Outcome of one pass attempt (one ladder rung).
struct AttemptResult {
  bool failed = false;
  bool will_retry = false;  ///< rolled back without a PassFailure; ladder retries
  PassFailure::Kind kind = PassFailure::Kind::Assertion;
  GovernorTrigger trigger = GovernorTrigger::CompileFuel;
  std::string message;
  bool injected = false;
};

/// One pass invocation under fault isolation, against the state of the
/// given PassContext — the parent compile's for program-scope passes, a
/// unit shard's inside unit-scope groups.  The unit is addressed by
/// index, not reference: a rollback swaps the unit object under the
/// program, and a reference captured before the pass ran would dangle.
///
/// `attempt_opts` are the (possibly ladder-degraded) switches the pass
/// runs with; everything else — fault recovery, verify-each — is read
/// from `ctx.opts`, the user's options.  On failure: a Resource failure
/// (never an assertion, verifier violation, or injected fault) with
/// `allow_retry` rolls all state back and returns will_retry for the
/// caller's ladder; any other failure takes the full fault-isolation path
/// (PassFailure record, warning, crash bundle / rethrow in no-recover
/// mode).
AttemptResult run_attempt(Pass& pass, std::size_t unit_index,
                          PassTiming& timing, PassContext& ctx,
                          const Options& attempt_opts, bool allow_retry,
                          AnalysisManager& am,
                          const std::string& repro_spec) {
  Program& program = ctx.program;
  CompileContext& cc = ctx.cc;
  const bool whole_program = unit_index == kProgramScope;
  auto unit_ptr = [&]() -> ProgramUnit* {
    return whole_program ? program.main()
                         : program.units()[unit_index].get();
  };
  ProgramUnit* unit = unit_ptr();
  const std::string unit_name = unit->name();

  // Pre-pass state: deep IR snapshot (all units for program scope) plus
  // the report counters and diagnostics mark, so a failed pass leaves no
  // trace beyond its PassFailure record.
  std::vector<std::unique_ptr<ProgramUnit>> snapshot;
  SymbolMap<Symbol*> snap_map;  // original -> snapshot symbols
  {
    trace::TraceSpan snap_span(&cc.trace(), "snapshot", "fault");
    if (whole_program) {
      for (const auto& u : program.units())
        snapshot.push_back(u->clone(u->name(), &snap_map));
    } else {
      snapshot.push_back(unit->clone(unit_name, &snap_map));
    }
  }
  const InlineResult inl_before = ctx.report.inlining;
  const InductionResult ind_before = ctx.report.induction;
  const DoallSummary doall_before = ctx.report.doall;
  const std::size_t diags_before = ctx.report.diagnostics.all().size();
  const AnalysisManager::Stats stats_before = am.stats();
  const std::size_t atoms_before = AtomTable::current().size();
  const std::size_t gov_mark = cc.governor().event_mark();
  IrSize before =
      whole_program ? program_ir_size(program) : unit_ir_size(*unit);

  // The invocation's trace span plus the rollback marks: everything a
  // failed pass emitted (child spans, instants) and every statistic it
  // bumped is unwound along with the IR, so an injected fault leaves the
  // observability record identical to a run that skipped the pass — save
  // for the invocation span itself, tagged rolled_back, and one rollback
  // instant event.
  const std::size_t trace_mark = cc.trace().mark();
  const StatisticSnapshot stats_mark = cc.stats().snapshot();
  trace::TraceSpan pass_span(&cc.trace(), pass.name(), "pass");
  pass_span.arg("unit", unit_name);

  // Shared unwind for retries and recovered failures: IR, atoms, report
  // counters, diagnostics, trace, statistics, and the governor's
  // degradation events all return to the attempt's start.
  auto rollback_state = [&]() {
    ctx.report.diagnostics.truncate(diags_before);
    ctx.report.inlining = inl_before;
    ctx.report.induction = ind_before;
    ctx.report.doall = doall_before;
    // Atoms the failed pass interned would shift canonical term ordering
    // in every later polynomial round-trip; drop them, then transfer the
    // surviving atoms' ids to the snapshot's symbols so later passes see
    // the same atom order as a run that never attempted this pass.  Must
    // happen before the snapshot is swapped in: remap reads the original
    // symbols (snap_map keys), which the swap destroys.  The table is the
    // thread-bound one — a unit shard's own, so a concurrent rollback
    // never touches another worker's atoms.
    AtomTable::current().truncate(atoms_before);
    AtomTable::current().remap(snap_map);
    if (whole_program)
      program.reset_units(std::move(snapshot));
    else
      program.replace_unit_at(unit_index, std::move(snapshot.front()));
    am.invalidate_all();
    // Unwind the observability record too: drop trace events emitted
    // inside the failed pass (its own span emits later, at scope exit,
    // and survives), zero statistics back to the pre-pass snapshot, and
    // drop any degradation events (query bail-outs) the attempt recorded.
    cc.trace().truncate(trace_mark);
    cc.stats().restore(stats_mark);
    cc.governor().truncate_events(gov_mark);
    pass_span.arg("rolled_back", "true");
  };

  // Rollback (or, with recovery off, crash-bundle preparation) for one
  // finally-failed invocation.
  auto fail = [&](PassFailure::Kind kind, const std::string& message,
                  bool was_injected) {
    PassFailure f;
    f.pass = pass.name();
    f.unit = unit_name;
    f.kind = kind;
    f.message = message;
    f.injected = was_injected;
    f.recovered = ctx.opts.fault_recovery;
    if (!ctx.opts.fault_recovery) {
      ctx.report.diagnostics.truncate(diags_before);
      ctx.report.inlining = inl_before;
      ctx.report.induction = ind_before;
      ctx.report.doall = doall_before;
      CompileReport::CrashInfo ci;
      ci.pass = f.pass;
      ci.unit = f.unit;
      ci.passes_spec = repro_spec;
      std::ostringstream os;
      for (const auto& u : snapshot) print_unit(os, *u);
      ci.unit_source = os.str();
      ctx.report.crash = std::move(ci);
      ctx.report.failures.push_back(std::move(f));
      return;  // caller (re)throws
    }
    rollback_state();
    cc.trace().instant("rollback", "fault",
                       {{"pass", pass.name()},
                        {"unit", unit_name},
                        {"kind", to_string(kind)}});
    ctx.report.diagnostics.warning(
        "fault-isolation", f.pass + "/" + f.unit,
        std::string(to_string(kind)) +
            (was_injected ? " (injected)" : "") +
            " failure; pass rolled back, continuing without it: " +
            message);
    ++timing.failures;
    ctx.report.failures.push_back(std::move(f));
  };

  const auto t0 = std::chrono::steady_clock::now();
  AttemptResult result;
  PreservedAnalyses preserved = PreservedAnalyses::all();
  cc.fault().set_scope(pass.name(), unit_name);
  cc.governor().set_scope(pass.name(), unit_name);
  // The ladder's attempt switches: the simplifier has no Options
  // parameter, so its depth limit rides on the governor for the duration
  // of this attempt (restored below whatever happens).
  cc.governor().set_simplify_depth_limit(attempt_opts.max_simplify_depth);
  struct AttemptGuard {
    CompileContext& cc;
    int restore_depth;
    ~AttemptGuard() {
      cc.governor().set_simplify_depth_limit(restore_depth);
      cc.governor().clear_scope();
    }
  } attempt_guard{cc, ctx.opts.max_simplify_depth};
  PassContext attempt_ctx{program, attempt_opts, ctx.report, cc, ctx.pure};
  try {
    preserved = pass.run(*unit, am, attempt_ctx);
    // An armed injection that found fewer than N assertion sites in this
    // pass/unit still fires, at the unit boundary — so the recovery path
    // is exercisable for every pass regardless of its assertion density.
    if (cc.fault().consume_boundary_fault())
      throw InternalError(detail::kInjectedCond, "unit-boundary", 0,
                          "deterministic fault injection at unit boundary");
    cc.fault().clear_scope();
  } catch (const ResourceBlowup& blow) {
    // A resource ceiling tripped and escaped the conservative query
    // boundaries (e.g. inside a transformation's own symbolic rewriting,
    // where a partial rewrite must not be kept).  Retryable.
    cc.fault().clear_scope();
    result.failed = true;
    result.kind = PassFailure::Kind::Resource;
    result.trigger = blow.trigger();
    result.message = blow.what();
    if (!ctx.opts.fault_recovery) {
      fail(result.kind, result.message, false);
      throw InternalError("resource-exhausted", pass.name(), 0,
                          result.message);
    }
  } catch (const InternalError& e) {
    cc.fault().clear_scope();
    result.failed = true;
    result.kind = PassFailure::Kind::Assertion;
    result.message = e.what();
    result.injected = e.injected();
    fail(result.kind, result.message, result.injected);
    if (!ctx.opts.fault_recovery) throw;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  if (!result.failed) {
    am.invalidate(preserved);
    if (ctx.opts.verify_each) {
      std::vector<VerifierViolation> vs = whole_program
                                              ? verify_program(program, &cc)
                                              : verify_unit(*unit_ptr(), &cc);
      if (!vs.empty()) {
        result.failed = true;
        result.kind = PassFailure::Kind::Verifier;
        result.message = format_violations(vs);
        fail(PassFailure::Kind::Verifier, result.message, false);
        if (!ctx.opts.fault_recovery)
          throw InternalError("verify-each", pass.name(), 0, result.message);
      }
    }
  }

  // Ladder handoff: a Resource failure caught above has not been recorded
  // yet; it either rolls back for the next rung or takes the final drop.
  if (result.failed && result.kind == PassFailure::Kind::Resource &&
      ctx.opts.fault_recovery) {
    if (allow_retry) {
      result.will_retry = true;
      rollback_state();
      cc.trace().instant("ladder-retry", "governor",
                         {{"pass", pass.name()},
                          {"unit", unit_name},
                          {"trigger", to_string(result.trigger)}});
    } else {
      fail(result.kind, result.message, false);
    }
  }

  unit = unit_ptr();  // a rollback replaced the unit object
  IrSize after =
      whole_program ? program_ir_size(program) : unit_ir_size(*unit);
  timing.ms += ms;
  timing.diags += static_cast<int>(ctx.report.diagnostics.all().size() -
                                   diags_before);
  timing.stmt_delta += after.stmts - before.stmts;
  timing.expr_delta += after.exprs - before.exprs;
  timing.analysis_queries += am.stats().queries - stats_before.queries;
  timing.analysis_hits += am.stats().hits - stats_before.hits;
  if (cc.trace().collecting()) {
    const AnalysisManager::Stats s = am.stats();
    cc.trace().counter("analysis-cache",
                       {{"queries", static_cast<std::uint64_t>(s.queries)},
                        {"hits", static_cast<std::uint64_t>(s.hits)}});
  }
  return result;
}

/// One (pass, unit) under fault isolation *and* the degradation ladder:
/// up to kLadderRungs attempts on progressively cheaper switches for
/// resource failures, then the drop.  Exactly one PassTiming run and at
/// most one PassFailure are recorded per call, whatever the rung count —
/// intermediate rungs surface as DegradationEvents and remarks only.
void run_one(Pass& pass, std::size_t unit_index, PassTiming& timing,
             PassContext& ctx, AnalysisManager& am,
             const std::string& repro_spec) {
  CompileContext& cc = ctx.cc;
  const bool ladder_on =
      ctx.opts.fault_recovery && ctx.opts.degradation_ladder;
  AttemptResult r;
  int rung = 0;
  for (;; ++rung) {
    const bool last_rung = !ladder_on || rung >= kLadderRungs - 1;
    const Options attempt_opts = degraded_options(ctx.opts, rung);
    r = run_attempt(pass, unit_index, timing, ctx, attempt_opts,
                    /*allow_retry=*/!last_rung, am, repro_spec);
    if (!r.will_retry) break;

    const std::string unit_name =
        unit_index == kProgramScope
            ? ctx.program.main()->name()
            : ctx.program.units()[unit_index]->name();
    const int next_rung = rung + 1;
    DegradationEvent ev;
    ev.pass = pass.name();
    ev.unit = unit_name;
    ev.trigger = to_string(r.trigger);
    ev.action = std::string("retry-") + ladder_rung_name(next_rung);
    ev.rung = next_rung;
    ev.detail = r.message;
    cc.governor().record_event(std::move(ev));
    ctx.report.diagnostics.remark(
        RemarkKind::Analysis, "governor", pass.name() + "/" + unit_name,
        "pass-degraded",
        std::string("resource overrun [") + to_string(r.trigger) +
            "]; retrying " + pass.name() + " with " +
            ladder_rung_name(next_rung) + " switches",
        {{"pass", pass.name()},
         {"rung", ladder_rung_name(next_rung)},
         {"trigger", to_string(r.trigger)}});
  }

  if (r.failed && ctx.opts.fault_recovery && !r.injected &&
      r.kind == PassFailure::Kind::Resource) {
    const std::string unit_name =
        unit_index == kProgramScope
            ? ctx.program.main()->name()
            : ctx.program.units()[unit_index]->name();
    DegradationEvent ev;
    ev.pass = pass.name();
    ev.unit = unit_name;
    ev.trigger = to_string(r.trigger);
    ev.action = "drop-pass";
    ev.rung = rung;
    ev.detail = r.message;
    cc.governor().record_event(std::move(ev));
    ctx.report.diagnostics.remark(
        RemarkKind::Analysis, "governor",
        pass.name() + "/" + unit_name, "pass-dropped",
        std::string("resource overrun [") + to_string(r.trigger) +
            "] persisted through every ladder rung; " + pass.name() +
            " dropped on " + unit_name,
        {{"pass", pass.name()}, {"trigger", to_string(r.trigger)}});
  }
  ++timing.runs;
}

/// Per-unit compilation state.  Everything a worker thread touches while
/// running one unit through a pass group lives here (or in the unit
/// itself); nothing is shared with other workers.
struct UnitShard {
  CompileContext cc;
  CompileReport report;          ///< fragment: counters, diags, failures
  AnalysisManager am{&cc};
  AtomTable atoms;               ///< per-shard so rollback stays isolated
  std::vector<PassTiming> timings;  ///< one row per pass in the group
  std::exception_ptr error;      ///< set only in no-recover mode
};

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
  into.diagnostics.append(shard.diagnostics);
  for (PassFailure& f : shard.failures) into.failures.push_back(std::move(f));
  if (shard.crash.has_value() && !into.crash.has_value())
    into.crash = std::move(shard.crash);
}

}  // namespace

void PassPipeline::run_unit_group(std::size_t group_begin,
                                  std::size_t group_end,
                                  std::size_t first_timing, Program& program,
                                  AnalysisManager& am, PassContext& ctx) const {
  const std::size_t n_units = program.units().size();
  const std::size_t n_passes = group_end - group_begin;
  const std::string repro_spec = ctx.opts.pipeline_spec.empty()
                                     ? join(pass_names(), ",")
                                     : ctx.opts.pipeline_spec;

  // Purity is the one cross-unit read inside a unit-scope group (DOALL
  // asks whether calls serialize a loop).  Snapshot it here, while the IR
  // is quiescent — workers are about to start rewriting their units.
  bool group_has_doall = false;
  for (std::size_t j = group_begin; j < group_end; ++j)
    if (passes_[j]->name() == "doall") group_has_doall = true;
  std::set<std::string> pure_snapshot;
  if (group_has_doall && ctx.opts.pure_functions)
    pure_snapshot = pure_functions(program);

  // Shard setup happens on this thread, in unit order, before any worker
  // runs: collectors adopt the parent's trace epoch and injectors the
  // parent's armed spec.  Resource ceilings are per-shard (the PR 5
  // histogram precedent), and the compile-fuel budget is an equal split
  // of the parent's *remaining* fuel — computed here, while execution is
  // still serial, so the shares (and with them every degradation point)
  // are identical at any `-jobs=N`.
  GovernorLimits shard_limits = limits_from_options(ctx.opts);
  shard_limits.fuel = ctx.cc.governor().shard_fuel_share(n_units);
  std::vector<std::unique_ptr<UnitShard>> shards;
  shards.reserve(n_units);
  for (std::size_t ui = 0; ui < n_units; ++ui) {
    auto sh = std::make_unique<UnitShard>();
    sh->cc.trace().start_shard_of(ctx.cc.trace());
    if (ctx.cc.fault().armed()) sh->cc.fault().arm(ctx.cc.fault().spec());
    sh->cc.governor().configure(shard_limits);
    sh->cc.bind_diagnostics(sh->report.diagnostics);
    sh->timings.resize(n_passes);
    for (std::size_t j = 0; j < n_passes; ++j)
      sh->timings[j].pass = passes_[group_begin + j]->name();
    shards.push_back(std::move(sh));
  }

  // Run every unit through the whole group.  The worker binds the shard's
  // context and atom table to its thread, so `++statistic`, p_assert
  // fault ticks, and polynomial interning all land in shard state.
  auto run_unit = [&](std::size_t ui) {
    UnitShard& sh = *shards[ui];
    CompileContext::Scope cc_scope(&sh.cc);
    AtomTable::Scope atom_scope(&sh.atoms);
    PassContext shard_ctx{program,   ctx.opts,       sh.report,
                          sh.cc,     &pure_snapshot};
    try {
      for (std::size_t j = group_begin; j < group_end; ++j)
        run_one(*passes_[j], ui, sh.timings[j - group_begin], shard_ctx,
                sh.am, repro_spec);
    } catch (...) {
      // Only reachable with fault recovery off; recovery handles failures
      // inside run_one.  The shard is left as-is and judged at merge.
      sh.error = std::current_exception();
    }
  };

  const int jobs =
      static_cast<int>(std::min<std::size_t>(
          n_units, static_cast<std::size_t>(std::max(1, ctx.opts.jobs))));
  if (jobs <= 1) {
    for (std::size_t ui = 0; ui < n_units; ++ui) {
      run_unit(ui);
      // No-recover parity with the sequential driver: units after an
      // aborting one are never attempted.
      if (shards[ui]->error != nullptr) break;
    }
  } else {
    // The compilation's persistent pool (shared with the parallel parse):
    // workers stay alive across pass groups, so a pipeline with many
    // unit-scope groups pays thread start-up once instead of per group,
    // and idle workers steal queued units instead of spinning on a shared
    // counter.
    ctx.cc.pool().run(n_units, jobs, run_unit);
  }

  // Deterministic merge, strictly in unit index order: report artifacts,
  // timing rows, analysis accounting, then the shard's counters and trace
  // events.  With recovery off the lowest failing unit index wins — its
  // shard is merged (it carries the crash bundle), later shards are
  // discarded, and the original exception resumes its flight.
  for (std::size_t ui = 0; ui < n_units; ++ui) {
    UnitShard& sh = *shards[ui];
    for (std::size_t j = 0; j < n_passes; ++j) {
      PassTiming& dst = ctx.report.pass_timings[first_timing + group_begin + j];
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
    am.absorb_stats(sh.am.stats());
    ctx.cc.merge_shard(sh.cc);
    if (sh.error != nullptr) std::rethrow_exception(sh.error);
  }

  // The parent manager's caches key on Statement pointers the shards just
  // rewrote; drop them (without perturbing the accounting) so a later
  // program-scope pass can never read a stale fact.
  am.clear_caches();
}

void PassPipeline::run(Program& program, AnalysisManager& am,
                       PassContext& ctx) const {
  // Arm the compile's resource ceilings for the pipeline's duration.
  // Program-scope passes charge the parent's meter directly; unit groups
  // split the remaining fuel across their shards.  Disarmed again after
  // the last pass so post-pipeline work (final verification, report
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

  // Program-scope passes run alone, serially, against the parent context;
  // maximal runs of unit-scope passes are grouped and fanned out over the
  // units (every unit sees the whole group in order — the seed driver's
  // order — and jobs=1 takes the identical shard path inline).
  std::size_t i = 0;
  while (i < passes_.size()) {
    if (passes_[i]->program_scope()) {
      run_one(*passes_[i], kProgramScope,
              ctx.report.pass_timings[first_timing + i], ctx, am, repro_spec);
      ++i;
      continue;
    }
    std::size_t group_end = i;
    while (group_end < passes_.size() &&
           !passes_[group_end]->program_scope())
      ++group_end;
    run_unit_group(i, group_end, first_timing, program, am, ctx);
    i = group_end;
  }
  ctx.cc.governor().configure(GovernorLimits{});
}

}  // namespace polaris
