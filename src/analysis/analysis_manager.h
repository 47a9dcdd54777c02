// Cached analysis results shared across restructuring passes.
//
// Polaris's passes repeatedly ask the same structural questions about the
// same regions — "what may this loop body write?", "which scalars are
// upward-exposed?" — and, in the seed, every call recomputed the answer by
// walking the region.  AnalysisManager memoizes those queries (keyed by
// region endpoints, which are stable Statement identities while the IR is
// not mutated) so that within a pass every repeated query is a cache hit.
//
// Invalidation follows the LLVM PreservedAnalyses idiom: each pass returns
// the set of analyses its transformation kept valid; the pass manager then
// drops everything else from the cache.  A pass that only annotates
// (e.g. DOALL marking) preserves everything; a pass that rewrites
// statements or expressions preserves nothing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/gsa.h"
#include "analysis/structure.h"
#include "ir/program.h"
#include "symbolic/compare.h"

namespace polaris {

class CompileContext;  // support/context.h

/// The analysis families the manager caches.  Coarse by design: passes
/// reason about "structure facts" as a unit, not per-region entries.
enum class AnalysisID : unsigned {
  StructureFacts = 0,  ///< region def/use sets, loop lists, invariance
  GsaFacts = 1,        ///< demand-driven GSA query engines
  FactContexts = 2,    ///< loop/guard FactContexts for symbolic proofs
};

/// A pass's declaration of which cached analyses survived it.
class PreservedAnalyses {
 public:
  /// Nothing survived: the pass rewrote the IR.
  static PreservedAnalyses none() { return PreservedAnalyses{0}; }
  /// Everything survived: the pass only read or annotated the IR.
  static PreservedAnalyses all() { return PreservedAnalyses{~0u}; }

  PreservedAnalyses& preserve(AnalysisID id) {
    mask_ |= 1u << static_cast<unsigned>(id);
    return *this;
  }
  bool preserved(AnalysisID id) const {
    return (mask_ >> static_cast<unsigned>(id)) & 1u;
  }
  bool preserved_all() const { return mask_ == ~0u; }

 private:
  explicit PreservedAnalyses(unsigned mask) : mask_(mask) {}
  unsigned mask_;
};

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
  const SymbolSet& used_symbols(Statement* first, Statement* last);

  /// Loop-invariance through the cached may-defined set of the loop.
  bool is_loop_invariant(const Expression& e, DoStmt* loop);

  /// All loops of the unit, innermost first (cached per statement list).
  const std::vector<DoStmt*>& loops_postorder(ProgramUnit& unit);

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

  // --- range-test search guidance ------------------------------------------
  /// Histogram of range-test proofs by the popcount of the winning
  /// fixed-subset mask.  Counter-guided candidate ordering
  /// (`-rangetest-max-permutations=N`) ranks popcount buckets by these
  /// observed successes.  The histogram is shard-local — one manager sees
  /// exactly one unit's queries in pass order regardless of `-jobs`, so
  /// guided ordering is deterministic at any worker count.  It survives
  /// invalidation on purpose: it records search outcomes, not IR facts.
  void note_range_success(unsigned popcount) {
    if (popcount < range_success_.size()) ++range_success_[popcount];
  }
  const std::array<std::uint64_t, 16>& range_success_by_popcount() const {
    return range_success_;
  }

  // --- invalidation --------------------------------------------------------
  /// Drops every cached family `pa` does not preserve.
  void invalidate(const PreservedAnalyses& pa);
  void invalidate_all();

  // --- accounting ----------------------------------------------------------
  struct Stats {
    std::uint64_t queries = 0;     ///< memoized lookups answered
    std::uint64_t hits = 0;        ///< answered from cache
    std::uint64_t recomputes = 0;  ///< answered by running the analysis
    std::uint64_t invalidations = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Adds a finished unit shard's accounting into this manager (the
  /// parent compile's aggregate under `-jobs=N`).
  void absorb_stats(const Stats& shard) {
    stats_.queries += shard.queries;
    stats_.hits += shard.hits;
    stats_.recomputes += shard.recomputes;
    stats_.invalidations += shard.invalidations;
  }

 private:
  enum StructureQuery { kMustDef = 0, kMayDef, kExposed, kUsed, kNumQueries };
  using RegionKey = std::pair<Statement*, Statement*>;

  const SymbolSet& region_query(StructureQuery q, Statement* first,
                                        Statement* last);

  std::map<RegionKey, SymbolSet> region_[kNumQueries];
  std::map<StmtList*, std::vector<DoStmt*>> loops_;
  std::map<ProgramUnit*, std::unique_ptr<GsaQuery>> gsa_;
  using PairKey = std::pair<Statement*, RegionKey>;

  std::map<Statement*, FactContext> facts_;
  std::map<PairKey, FactContext> pair_facts_;
  std::array<std::uint64_t, 16> range_success_{};
  Stats stats_;
  CompileContext* ctx_ = nullptr;
};

}  // namespace polaris
