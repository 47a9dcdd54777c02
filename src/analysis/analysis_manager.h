// Cached analysis results within one pass run.
//
// Polaris's passes repeatedly ask the same structural questions about the
// same regions — "what may this loop body write?", "which scalars are
// upward-exposed?" — and, in the seed, every call recomputed the answer by
// walking the region.  AnalysisManager memoizes those queries (keyed by
// region endpoints, which are stable Statement identities while the IR is
// not mutated) so that within a pass every repeated query is a cache hit.
//
// A manager lives exactly as long as one pass run on one unit: the pass
// manager builds a fresh one for every (pass, unit) attempt, so no fact
// outlives the pass that computed it.  A pass that rewrites the IR
// mid-run calls invalidate() after each rewrite.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "analysis/gsa.h"
#include "analysis/structure.h"
#include "ir/program.h"
#include "symbolic/compare.h"

namespace polaris {

class CompileContext;  // support/context.h

class AnalysisManager {
 public:
  AnalysisManager() = default;
  /// Binds the manager to a compilation: expensive recomputes (GSA engine
  /// builds) emit trace spans into `ctx`'s collector.  The context also
  /// rides along to code that receives the manager but not the context
  /// directly (dependence testers).  Null behaves like the default ctor.
  explicit AnalysisManager(CompileContext* ctx) : ctx_(ctx) {}
  AnalysisManager(const AnalysisManager&) = delete;
  AnalysisManager& operator=(const AnalysisManager&) = delete;

  /// The owning compilation's context (null when unbound, e.g. in
  /// analysis unit tests).
  CompileContext* context() const { return ctx_; }

  // --- memoized structure queries (see analysis/structure.h) ---------------
  const SymbolSet& must_defined_scalars(Statement* first,
                                                Statement* last);
  const SymbolSet& may_defined_symbols(Statement* first,
                                               Statement* last);
  const SymbolSet& upward_exposed_scalars(Statement* first,
                                                  Statement* last);

  /// Loop-invariance through the cached may-defined set of the loop.
  bool is_loop_invariant(const Expression& e, DoStmt* loop);

  // --- GSA query engines ---------------------------------------------------
  /// The unit's demand-driven GSA engine (one instance per unit, reused by
  /// privatization and dependence analysis within a pass).
  GsaQuery& gsa(ProgramUnit& unit);

  // --- symbolic fact contexts ----------------------------------------------
  /// Memoized FactContext for a program point; `compute` runs on a miss.
  /// The builder lives in dep/regions.cpp, so the manager takes it as a
  /// callback rather than depending on the dep layer.
  const FactContext& fact_context(Statement* at,
                                  const std::function<FactContext()>& compute);
  /// Same, keyed by (carrier, ordered access pair) — the range test builds
  /// one context per tested pair per carrier loop.  The pair is ordered
  /// because elimination ranks differ between (a, b) and (b, a).
  const FactContext& pair_fact_context(
      Statement* carrier, Statement* a, Statement* b,
      const std::function<FactContext()>& compute);

  // --- invalidation --------------------------------------------------------
  /// Drops every cached fact; for a pass that has just rewritten the IR.
  void invalidate();

  // --- accounting ----------------------------------------------------------
  struct Stats {
    std::uint64_t queries = 0;     ///< memoized lookups answered
    std::uint64_t hits = 0;        ///< answered from cache
    std::uint64_t recomputes = 0;  ///< answered by running the analysis
    std::uint64_t invalidations = 0;

    Stats& operator+=(const Stats& o) {
      queries += o.queries;
      hits += o.hits;
      recomputes += o.recomputes;
      invalidations += o.invalidations;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  enum StructureQuery { kMustDef = 0, kMayDef, kExposed, kNumQueries };
  using RegionKey = std::pair<Statement*, Statement*>;

  const SymbolSet& region_query(StructureQuery q, Statement* first,
                                        Statement* last);

  std::map<RegionKey, SymbolSet> region_[kNumQueries];
  std::map<ProgramUnit*, std::unique_ptr<GsaQuery>> gsa_;
  using PairKey = std::pair<Statement*, RegionKey>;

  std::map<Statement*, FactContext> facts_;
  std::map<PairKey, FactContext> pair_facts_;
  Stats stats_;
  CompileContext* ctx_ = nullptr;
};

}  // namespace polaris
