#include "analysis/analysis_manager.h"

#include "support/context.h"
#include "support/trace.h"

namespace polaris {

const SymbolSet& AnalysisManager::region_query(StructureQuery q,
                                                       Statement* first,
                                                       Statement* last) {
  ++stats_.queries;
  RegionKey key{first, last};
  auto it = region_[q].find(key);
  if (it != region_[q].end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.recomputes;
  SymbolSet result;
  switch (q) {
    case kMustDef:
      result = polaris::must_defined_scalars(first, last);
      break;
    case kMayDef:
      result = polaris::may_defined_symbols(first, last);
      break;
    case kExposed:
      result = polaris::upward_exposed_scalars(first, last);
      break;
    case kNumQueries:
      p_assert(false);
  }
  return region_[q].emplace(key, std::move(result)).first->second;
}

const SymbolSet& AnalysisManager::must_defined_scalars(
    Statement* first, Statement* last) {
  return region_query(kMustDef, first, last);
}

const SymbolSet& AnalysisManager::may_defined_symbols(
    Statement* first, Statement* last) {
  return region_query(kMayDef, first, last);
}

const SymbolSet& AnalysisManager::upward_exposed_scalars(
    Statement* first, Statement* last) {
  return region_query(kExposed, first, last);
}

bool AnalysisManager::is_loop_invariant(const Expression& e, DoStmt* loop) {
  return polaris::is_loop_invariant(
      e, loop, may_defined_symbols(loop, loop->follow()));
}

GsaQuery& AnalysisManager::gsa(ProgramUnit& unit) {
  ++stats_.queries;
  auto it = gsa_.find(&unit);
  if (it != gsa_.end()) {
    ++stats_.hits;
    return *it->second;
  }
  ++stats_.recomputes;
  trace::TraceSpan gsa_span(ctx_ != nullptr ? &ctx_->trace() : nullptr,
                            "gsa-build", "analysis");
  gsa_span.arg("unit", unit.name());
  return *gsa_.emplace(&unit, std::make_unique<GsaQuery>(unit))
              .first->second;
}

const FactContext& AnalysisManager::fact_context(
    Statement* at, const std::function<FactContext()>& compute) {
  ++stats_.queries;
  auto it = facts_.find(at);
  if (it != facts_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.recomputes;
  return facts_.emplace(at, compute()).first->second;
}

const FactContext& AnalysisManager::pair_fact_context(
    Statement* carrier, Statement* a, Statement* b,
    const std::function<FactContext()>& compute) {
  ++stats_.queries;
  PairKey key{carrier, RegionKey{a, b}};
  auto it = pair_facts_.find(key);
  if (it != pair_facts_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.recomputes;
  return pair_facts_.emplace(key, compute()).first->second;
}

void AnalysisManager::invalidate() {
  ++stats_.invalidations;
  for (auto& m : region_) m.clear();
  gsa_.clear();
  facts_.clear();
  pair_facts_.clear();
}

}  // namespace polaris
