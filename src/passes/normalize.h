// Loop normalization (paper Section 3.3: OCEAN's FTRVMT nest needed
// "interprocedural constant propagation and loop normalization" before the
// range test applied).
//
// Loops with constant step c not equal to 1 are rewritten to stride-1 form:
//     do i = lo, hi, c              do i_nrm = 0, (hi - lo)/c
//       ... i ...           =>        ... lo + c*i_nrm ...
//     end do                        end do
//                                   i = lo + c*max((hi - lo + c)/c, 0)
// which makes subscripts affine in the new index for every dependence
// test, re-enables induction substitution (which requires unit steps), and
// preserves Fortran's final-index-value semantics via the trailing
// assignment (emitted only when the old index is live after the loop).
// The index must not be assigned inside the body (checked).
#pragma once

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

/// Normalizes every constant-step loop with |step| != 1 (and negative unit
/// steps); returns the number of loops rewritten.  Structural queries go
/// through `am`; the pass invalidates it after each rewrite.
int normalize_loops(ProgramUnit& unit, const Options& opts,
                    Diagnostics& diags, AnalysisManager& am);

}  // namespace polaris
