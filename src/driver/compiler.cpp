#include "driver/compiler.h"

#include "driver/pass_manager.h"
#include "ir/verifier.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "support/assert.h"
#include "support/context.h"
#include "support/governor.h"
#include "support/statistic.h"
#include "support/trace.h"
#include "symbolic/poly.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

/// Arms deterministic fault injection on this compilation's injector for
/// the duration of one transform when Options::fault_inject is set;
/// disarms on every exit path.
class FaultArmGuard {
 public:
  FaultArmGuard(FaultInjector& injector, const std::string& spec)
      : injector_(injector) {
    if (!spec.empty()) {
      injector_.arm(fault::parse_spec(spec));
      armed_ = true;
    }
  }
  ~FaultArmGuard() {
    if (armed_) injector_.disarm();
  }
  FaultArmGuard(const FaultArmGuard&) = delete;
  FaultArmGuard& operator=(const FaultArmGuard&) = delete;

 private:
  FaultInjector& injector_;
  bool armed_ = false;
};

/// Arms the compilation's trace collector when Options::trace_path is set
/// and no outer scope already armed it (Compiler::compile arms before
/// calling transform; transform must not re-arm).  On destruction the
/// owning guard stops the collector and writes the Chrome trace file.
class TraceOwnGuard {
 public:
  TraceOwnGuard(trace::TraceCollector& collector, const std::string& path)
      : collector_(collector) {
    if (!path.empty() && !collector_.collecting()) {
      collector_.start(path);
      owner_ = true;
    }
  }
  ~TraceOwnGuard() {
    if (owner_) collector_.stop();
  }
  TraceOwnGuard(const TraceOwnGuard&) = delete;
  TraceOwnGuard& operator=(const TraceOwnGuard&) = delete;

 private:
  trace::TraceCollector& collector_;
  bool owner_ = false;
};

}  // namespace

std::unique_ptr<Program> Compiler::compile(const std::string& source,
                                           CompileReport* report) {
  CompileContext cc;
  return compile(source, report, cc);
}

std::unique_ptr<Program> Compiler::compile(const std::string& source,
                                           CompileReport* report,
                                           CompileContext& cc) {
  CompileContext::Scope ctx_scope(&cc);
  TraceOwnGuard tracing(cc.trace(), opts_.trace_path);
  trace::TraceSpan compile_span(&cc.trace(), "compile", "driver");
  std::unique_ptr<Program> program = parse_program(source, &cc, opts_.jobs);
  transform(*program, report, cc);
  return program;
}

void Compiler::transform(Program& program, CompileReport* report) {
  CompileContext cc;
  transform(program, report, cc);
}

void Compiler::transform(Program& program, CompileReport* report,
                         CompileContext& cc) {
  CompileReport local;
  CompileReport& rep = report ? *report : local;

  // Bind the context (and so its fault injector) to this thread for the
  // `++statistic` / p_assert bridges, and route pass diagnostics straight
  // into the report's sink.
  CompileContext::Scope ctx_scope(&cc);
  cc.bind_diagnostics(rep.diagnostics);

  // Atom identity keys on Symbol pointers: give every compilation a fresh
  // thread-bound table so a recycled heap address can never alias an atom
  // from a previous compilation (which would skew canonical term order).
  // Unit shards bind their own tables on their worker threads.
  AtomTable atoms;
  AtomTable::Scope atom_scope(&atoms);

  // Arms only when Compiler::compile (or a test) hasn't already; the
  // pipeline span then nests under the compile span when both exist.
  TraceOwnGuard tracing(cc.trace(), opts_.trace_path);
  trace::TraceSpan pipeline_span(&cc.trace(), "pipeline", "driver");
  StatisticSnapshot stats_base = cc.stats().snapshot();

  // The battery (inline expansion, constant propagation, normalization,
  // induction substitution, forward substitution, DOALL recognition,
  // strength reduction — paper Sections 3.1-3.5) runs through the pass
  // manager; Options::pipeline_spec swaps in a custom `-passes=` battery.
  PassContext ctx{program, opts_, rep, cc};
  FaultArmGuard inject(cc.fault(), opts_.fault_inject);
  // Degradation events recorded before this transform (an embedder
  // reusing one context for several compiles) belong to earlier reports.
  const ResourceGovernor& gov = cc.governor();
  const std::size_t degradations_base = gov.events().size();
  // The meters are never reset either, so the report carries the delta
  // this transform ran up, mirroring degradations_base.
  const GovernorMeters meters_base = gov.meters();
  PassPipeline::from_options(opts_).run(ctx);
  rep.degradations.assign(
      gov.events().begin() + static_cast<std::ptrdiff_t>(degradations_base),
      gov.events().end());
  // The pipeline disarms the governor on exit, so the installed limit
  // must be recomputed from the options, not read off the meter.
  const GovernorMeters spent = gov.meters() - meters_base;
  rep.resource.fuel_limit = limits_from_options(opts_).fuel;
  rep.resource.fuel_spent = spent.fuel;
  rep.resource.trips_compile_fuel =
      spent.trips[static_cast<int>(GovernorTrigger::CompileFuel)];
  rep.resource.trips_poly_terms =
      spent.trips[static_cast<int>(GovernorTrigger::PolyTerms)];
  rep.resource.trips_atom_ceiling =
      spent.trips[static_cast<int>(GovernorTrigger::AtomCeiling)];

  // The structural verifier always runs once after the pipeline (not just
  // under -verify-each): corrupted IR must never escape into the printed
  // output or the execution engine.
  std::vector<VerifierViolation> violations = verify_program(program, &cc);
  if (!violations.empty())
    throw InternalError("ir-verifier", "post-pipeline", 0,
                        format_violations(violations));

  for (const auto& unit : program.units()) {
    for (DoStmt* loop : unit->stmts().loops()) {
      LoopReport lr;
      lr.unit = unit->name();
      lr.loop = loop->loop_name();
      lr.depth = unit->stmts().depth(loop);
      lr.parallel = loop->par.is_parallel;
      lr.speculative = loop->par.speculative;
      lr.serial_reason = loop->par.serial_reason;
      lr.reason_code = loop->par.serial_code;
      // Every serial loop must carry a machine-readable code.  A loop the
      // DOALL pass never visited (custom `-passes=` battery without doall)
      // gets the explicit fallback instead of an empty field.
      if (!lr.parallel && lr.reason_code.empty()) {
        lr.reason_code = "not-analyzed";
        if (lr.serial_reason.empty())
          lr.serial_reason = "loop not analyzed for parallelism";
      }
      lr.dep_pairs = loop->par.dep_pairs;
      lr.dep_by_gcd = loop->par.dep_by_gcd;
      lr.dep_by_banerjee = loop->par.dep_by_banerjee;
      lr.dep_by_rangetest = loop->par.dep_by_rangetest;
      rep.loops.push_back(std::move(lr));
    }
  }
  rep.annotated_source = to_source(program);
  rep.stats = cc.stats().delta_since(stats_base);
}

ExecutionConfig backend_config(CompilerMode mode, const Program& program,
                               int processors) {
  ExecutionConfig cfg;
  cfg.machine.processors = processors;
  if (mode == CompilerMode::Polaris) return cfg;

  // The PFA back end restructures loops aggressively (interchange,
  // unrolling, fusion).  On long regular loops that lowers overhead and
  // improves locality; on nests whose *inner* loops have short constant
  // trip counts the restructuring backfires (extra bookkeeping dominates).
  bool short_inner = false;
  bool any_nest = false;
  for (const auto& unit : program.units()) {
    for (DoStmt* loop : unit->stmts().loops()) {
      if (loop->outer() == nullptr) continue;  // want inner loops
      any_nest = true;
      std::int64_t init = 0, limit = 0;
      if (try_fold_int(loop->init(), &init) &&
          try_fold_int(loop->limit(), &limit)) {
        if (limit - init + 1 <= 8) short_inner = true;
      }
    }
  }
  cfg.codegen_factor = short_inner ? 1.8 : (any_nest ? 0.92 : 1.0);
  return cfg;
}

}  // namespace polaris
