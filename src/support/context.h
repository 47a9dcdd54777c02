// CompileContext: the per-compilation home of everything that used to be
// process-global compiler state.
//
// PRs 1-3 grew statistics, tracing, and fault injection as singletons
// (`StatisticRegistry::instance()`, a static trace collector behind a
// `g_on` flag, a `fault_armed_flag`).  That made compilations interfere:
// two Compiler instances in one process shared counters, and the
// ROADMAP's "parallel per-unit pass execution" item was impossible —
// every worker would race on the same mutable state.  CompileContext
// inverts the ownership: each compilation (and, under `-jobs=N`, each
// per-unit shard) owns its own
//
//   - StatisticRegistry   (POLARIS_STATISTIC counter values)
//   - trace::TraceCollector (span/instant/counter event buffer)
//   - FaultInjector       (deterministic fault-injection arming + scope)
//   - a Diagnostics sink  (bound to the CompileReport's sink, with an
//     owned fallback so a context is usable before a report exists)
//
// The context is threaded *explicitly* through the driver, pass manager,
// passes, dependence testers, GSA, and verifier.  Two kinds of call sites
// cannot take a parameter — `++statistic` expressions and `p_assert`
// macros — so the context is additionally bound to the executing thread
// (CompileContext::Scope), and those sites reach it through
// CompileContext::current() / FaultInjector::current().  A thread outside
// any Scope sees null and the sites degrade to no-ops.
//
// Shard protocol (see driver/pass_manager.cpp): each unit shard gets a
// fresh CompileContext whose trace collector shares the parent's time
// epoch; when the unit finishes, the parent calls merge_shard() in unit
// order, making every merged artifact deterministic regardless of worker
// count.  A faulted pass attempt discards its shard's context whole.
#pragma once

#include <memory>

#include "support/assert.h"
#include "support/diagnostics.h"
#include "support/governor.h"
#include "support/statistic.h"
#include "support/trace.h"
#include "support/worker_pool.h"

namespace polaris {

class CompileContext {
 public:
  CompileContext() = default;
  CompileContext(const CompileContext&) = delete;
  CompileContext& operator=(const CompileContext&) = delete;

  StatisticRegistry& stats() { return stats_; }
  const StatisticRegistry& stats() const { return stats_; }

  trace::TraceCollector& trace() { return trace_; }
  const trace::TraceCollector& trace() const { return trace_; }

  FaultInjector& fault() { return fault_; }
  const FaultInjector& fault() const { return fault_; }

  /// Resource ceilings + degradation-event record for this compilation
  /// (or this unit shard).  Symbolic code reaches it through
  /// ResourceGovernor::current(); merge_shard folds shard events and the
  /// fuel meter back in unit order.
  ResourceGovernor& governor() { return governor_; }
  const ResourceGovernor& governor() const { return governor_; }

  /// The diagnostics sink passes write remarks into.  Defaults to a sink
  /// owned by the context; the driver rebinds it to the CompileReport's
  /// sink so diagnostics land directly in the report.
  Diagnostics& diags() { return *diags_; }
  void bind_diagnostics(Diagnostics& sink) { diags_ = &sink; }

  /// The compilation's persistent worker pool, created lazily on first
  /// use and shared by every parallel phase of this compile (per-unit
  /// parsing, unit-scope pass groups).  Only the thread driving the
  /// compilation may call this — per-unit shard contexts never create
  /// pools (their jobs count is pinned to 1), so parallel regions cannot
  /// nest.
  WorkerPool& pool() {
    if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>();
    return *pool_;
  }

  /// Folds a finished unit shard into this context: counter values are
  /// summed, trace events appended (shards share this context's epoch, so
  /// timestamps stay on one timeline, and any spans the shard left open —
  /// e.g. after a fault unwound its worker — are closed first).  Shard
  /// diagnostics travel in the shard's CompileReport fragment, merged by
  /// the pass manager; fault-injection state is per-shard and never
  /// merges.  Call in unit order for deterministic output.
  void merge_shard(CompileContext& shard);

  /// Context bound to the calling thread (null outside any Scope) — the
  /// bridge for `++statistic` sites, which cannot take a parameter.
  static CompileContext* current();

  /// RAII thread binding: makes `ctx` the thread's current context and
  /// its FaultInjector the thread's current injector.  Nests; destruction
  /// restores the previous binding.  Pass null to explicitly unbind.
  class Scope {
   public:
    explicit Scope(CompileContext* ctx);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    CompileContext* prev_;
    FaultInjector::Scope fault_scope_;
  };

 private:
  StatisticRegistry stats_;
  trace::TraceCollector trace_;
  FaultInjector fault_;
  ResourceGovernor governor_;
  Diagnostics owned_diags_;
  Diagnostics* diags_ = &owned_diags_;
  std::unique_ptr<WorkerPool> pool_;  ///< lazy; see pool()
};

}  // namespace polaris
