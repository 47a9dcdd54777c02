// The Range Test (paper Section 3.3.1; Blume & Eigenmann, SC'94).
//
// A loop is proven to carry no dependence between two array references when
// the *range* of elements accessed by one iteration cannot overlap the
// ranges of other iterations.  Ranges are computed by eliminating inner
// loops through their [init, limit] bounds using forward-difference
// monotonicity; the tested loop's consecutive iterations are then compared
// symbolically (max of iteration x strictly before min of iteration x+step,
// plus a monotonicity condition that extends the result to all iteration
// pairs).
//
// The paper's "symbolic permutation of the visitation order" is realized by
// choosing, for the common inner loops, whether each is *fixed* (treated as
// outer — both references see the same index value) or *eliminated*
// (swept).  The OCEAN FTRVMT nest needs the middle loop fixed while the
// outer loop is tested — precisely the swap the paper describes.
#pragma once

#include "analysis/analysis_manager.h"
#include "dep/access.h"
#include "support/diagnostics.h"
#include "support/options.h"
#include "symbolic/compare.h"

namespace polaris {

class LoopBoundsMemo;

class RangeTest {
 public:
  /// `am` memoizes the per-pair fact contexts, which dominate setup cost
  /// when the same pairs are re-tested within a pass run.
  RangeTest(const Options& opts, AnalysisManager& am) : opts_(opts), am_(am) {}

  /// True if `carrier` provably carries no dependence between accesses
  /// `a` and `b` (to the same array; at least one a write).  False means
  /// "could not prove", never "dependence proven".
  ///
  /// Conservative bail-out boundary: a ResourceBlowup tripping anywhere in
  /// the query (polynomial term ceiling, atom ceiling, compile fuel)
  /// yields false — "could not prove" is always a correct answer — and is
  /// recorded as a governor degradation event, never propagated.
  bool independent(DoStmt* carrier, const ArrayAccess& a,
                   const ArrayAccess& b) const;

 private:
  bool independent_impl(DoStmt* carrier, const ArrayAccess& a,
                        const ArrayAccess& b) const;

  /// `bounds` is the query's memo: each DO's bounds are converted once per
  /// query, not at every mask, dimension and sweep step.
  bool test_dimension(DoStmt* carrier, const Polynomial& f,
                      const Polynomial& g,
                      const std::vector<DoStmt*>& elim_f,
                      const std::vector<DoStmt*>& elim_g,
                      std::int64_t step, const FactContext& ctx,
                      LoopBoundsMemo& bounds) const;

  const Options& opts_;
  AnalysisManager& am_;
};

}  // namespace polaris
