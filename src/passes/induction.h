// Induction variable substitution (paper Section 3.2).
//
// Recognizes scalar recurrences K = K + inc where inc is an enclosing loop
// index expression, a loop-invariant expression, or an expression over
// *other* induction candidates (cascaded inductions, Figure 1), inside
// arbitrary (including triangular) loop nests.  Closed forms are computed
// by summing the per-iteration increment over the iteration space with
// exact Faulhaber summation, then every use is replaced by the closed form
// at that point; the recurrence statements are deleted and a last-value
// assignment is emitted when the variable is live after the nest.
//
// Requirements for a candidate (checked; failures are diagnosed, not
// fatal): integer scalar; every definition in the nest has the recurrence
// form and is unconditional (not under an IF); loops containing increments
// have constant step 1; increments reference no variable that the nest may
// modify (other than candidates); no cyclic cascades.
#pragma once

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct InductionResult {
  int substituted = 0;  ///< candidates successfully substituted
  int rejected = 0;     ///< candidates found but rejected
};

/// Runs induction substitution on every outermost loop nest of `unit`.
/// Structural queries go through `am`; the pass invalidates it after each
/// substituted nest.
InductionResult substitute_inductions(ProgramUnit& unit, const Options& opts,
                                      Diagnostics& diags,
                                      AnalysisManager& am);

}  // namespace polaris
