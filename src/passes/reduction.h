// Reduction recognition (paper Section 3.2).
//
// Recognizes statements of the idiom
//     A(a1,...,an) = A(a1,...,an) op beta      (n may be 0: scalar)
// with op in {+, -, *, min, max}, where beta and the subscripts do not
// reference A and A is not referenced elsewhere in the loop outside other
// reduction statements on A.  Single-address reductions accumulate into a
// fixed location; histogram reductions sum into varying elements.
// Statements are flagged (AssignStmt::reduction_flag), mirroring Polaris's
// directive-based flow where the dependence pass later clears flags it can
// disprove.
#pragma once

#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct RecognizedReduction {
  Symbol* var = nullptr;
  ReductionKind op = ReductionKind::None;
  bool histogram = false;
  std::vector<AssignStmt*> stmts;
};

/// Finds and flags the reductions of `loop`.  Only statements directly in
/// the loop body (any nesting depth) participate; candidates invalidated
/// by other references to A are not returned and their flags are cleared.
/// Invariance checks share `am`'s cached loop facts.
std::vector<RecognizedReduction> recognize_reductions(DoStmt* loop,
                                                      const Options& opts,
                                                      Diagnostics& diags,
                                                      AnalysisManager& am);

}  // namespace polaris
