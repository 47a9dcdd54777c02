// Strength reduction of substituted induction expressions.
//
// Induction substitution can cause "unusually large code expansion"
// (paper, Figure 1 discussion): closed forms like
// (i*(n**2+n) + j**2 - j)/2 + k + 1 are re-evaluated per element.  The
// paper's remedy — "a scheme which assigns initial closed-form values to
// private copies of induction variables at each parallel loop header,
// leaving uses in the remainder of the loop body in their original form"
// — is implemented here: inside a loop marked parallel, every innermost
// loop whose subscripts are affine in its index with an expensive base
// gets a private running counter:
//
//     do k = 0, j-1                      t = <f at k=init>
//       a(<f(k)>) = ...        =>        do k = 0, j-1
//     end do                               a(t) = ...
//                                          t = t + <stride>
//                                        end do
//
// The counter is private to the enclosing parallel loop (added to its
// ParallelInfo), and the inner loop's own parallel mark is dropped (the
// execution engine always chooses the outermost parallel loop anyway).
#pragma once

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

/// Runs after DOALL marking; returns the number of subscripts reduced.
/// Invariance checks go through `am`'s cached may-defined sets; the pass
/// invalidates it after each rewritten inner loop.
int strength_reduce(ProgramUnit& unit, const Options& opts,
                    Diagnostics& diags, AnalysisManager& am);

}  // namespace polaris
