#include "dep/ddtest.h"

#include <algorithm>

#include "analysis/structure.h"
#include "dep/linear.h"
#include "dep/rangetest.h"
#include "support/context.h"
#include "support/governor.h"
#include "support/statistic.h"
#include "support/trace.h"

namespace polaris {

namespace {

/// Common enclosing loops of both statements, outermost first.
std::vector<DoStmt*> common_nest(Statement* s1, Statement* s2) {
  std::vector<DoStmt*> n1 = enclosing_loops(s1);
  std::vector<DoStmt*> n2 = enclosing_loops(s2);
  std::vector<DoStmt*> out;
  for (size_t i = 0; i < n1.size() && i < n2.size() && n1[i] == n2[i]; ++i)
    out.push_back(n1[i]);
  return out;
}

enum class PairVerdict { Gcd, Banerjee, RangeTest, Dependent };

PairVerdict test_pair_impl(DoStmt* loop, const ArrayAccess& a,
                           const ArrayAccess& b, const Options& opts,
                           AnalysisManager& am) {
  std::vector<DoStmt*> nest = common_nest(a.stmt, b.stmt);
  p_assert_msg(std::find(nest.begin(), nest.end(), loop) != nest.end(),
               "carrier loop must enclose both accesses");

  const int rank = a.ref->rank();
  if (rank == b.ref->rank()) {
    // Linear battery, dimension by dimension: one provably independent
    // dimension kills the pair.
    for (int d = 0; d < rank; ++d) {
      Polynomial f = Polynomial::from_expr(*a.ref->subscripts()[d]);
      Polynomial g = Polynomial::from_expr(*b.ref->subscripts()[d]);
      LinearForm lf = extract_linear(f, nest);
      LinearForm lg = extract_linear(g, nest);
      if (opts.gcd_test &&
          gcd_test(lf, lg) == LinearVerdict::NoDependence)
        return PairVerdict::Gcd;
      if (opts.banerjee_test &&
          (siv_carried(lf, lg, nest, loop) == LinearVerdict::NoDependence ||
           banerjee_carried(lf, lg, nest, loop) ==
               LinearVerdict::NoDependence))
        return PairVerdict::Banerjee;
    }
    if (opts.range_test) {
      RangeTest rt(opts, am);
      if (rt.independent(loop, a, b)) return PairVerdict::RangeTest;
    }
  }
  return PairVerdict::Dependent;
}

/// Conservative bail-out boundary around the whole linear battery: a
/// resource ceiling tripping inside subscript canonicalization or the
/// linear tests yields "Dependent" — assuming a dependence serializes the
/// loop, which is always correct.  (The range test has its own inner
/// boundary; this one covers the gcd/Banerjee path.)
PairVerdict test_pair(DoStmt* loop, const ArrayAccess& a,
                      const ArrayAccess& b, const Options& opts,
                      AnalysisManager& am) {
  try {
    return test_pair_impl(loop, a, b, opts, am);
  } catch (const ResourceBlowup& blow) {
    note_conservative_bailout("ddtest", blow);
    return PairVerdict::Dependent;
  }
}

POLARIS_STATISTIC("ddtest", pairs_tested,
                  "array reference pairs submitted to dependence testing");
POLARIS_STATISTIC("ddtest", pairs_independent_gcd,
                  "pairs proven independent by the GCD test");
POLARIS_STATISTIC("ddtest", pairs_independent_banerjee,
                  "pairs proven independent by the Banerjee test");
POLARIS_STATISTIC("ddtest", pairs_assumed_dependent,
                  "pairs no test could disprove (assumed dependent)");

}  // namespace

LoopDepStats test_loop_arrays(DoStmt* loop, const Options& opts,
                              Diagnostics& diags,
                              const SymbolSet& exempt,
                              const std::string& context,
                              AnalysisManager& am) {
  LoopDepStats stats;
  // The compile context rides on the analysis manager here: the tester's
  // callers always pass the shard's manager, and a context-less manager
  // (unit tests) simply runs untraced.
  CompileContext* cc = am.context();
  trace::TraceSpan batch_span(cc != nullptr ? &cc->trace() : nullptr,
                              "ddtest", "dep");
  batch_span.arg("loop", context);
  auto accesses = collect_array_accesses(loop);
  for (auto& [array, refs] : accesses) {
    if (exempt.count(array)) continue;
    for (size_t i = 0; i < refs.size(); ++i) {
      for (size_t j = i; j < refs.size(); ++j) {
        if (!refs[i].is_write && !refs[j].is_write) continue;
        // A reference paired with itself only matters for writes (output
        // dependence across iterations).
        if (i == j && !refs[i].is_write) continue;
        ++stats.pairs;
        ++pairs_tested;
        switch (test_pair(loop, refs[i], refs[j], opts, am)) {
          case PairVerdict::Gcd:
            ++stats.by_gcd;
            ++pairs_independent_gcd;
            break;
          case PairVerdict::Banerjee:
            ++stats.by_banerjee;
            ++pairs_independent_banerjee;
            break;
          case PairVerdict::RangeTest:
            ++stats.by_rangetest;
            break;
          case PairVerdict::Dependent: {
            ++pairs_assumed_dependent;
            std::string desc = array->name() + "(" +
                               refs[i].ref->to_string() + " vs " +
                               refs[j].ref->to_string() + ")";
            stats.blockers.push_back(desc);
            break;
          }
        }
      }
    }
  }
  batch_span.arg("pairs", static_cast<std::uint64_t>(stats.pairs));
  batch_span.arg("parallel", stats.parallel() ? "true" : "false");
  if (stats.parallel()) {
    diags.note("ddtest", context,
               "no carried array dependences (" +
                   std::to_string(stats.by_gcd) + " gcd, " +
                   std::to_string(stats.by_banerjee) + " banerjee, " +
                   std::to_string(stats.by_rangetest) + " rangetest)");
  } else {
    diags.note("ddtest", context,
               "assumed dependence on " + stats.blockers.front());
  }
  return stats;
}

}  // namespace polaris
