// Scalar and array privatization (paper Section 3.4).
//
// A variable is privatizable in a loop when every use in an iteration is
// dominated by a definition in the same iteration — it is a per-iteration
// temporary.  Scalars use upward-exposed-use analysis.  Arrays compare
// per-iteration *regions*: unconditional writes contribute definition
// intervals (bounds swept over inner loops), and every read's interval
// must be contained in a definition interval that precedes it.  Symbolic
// containment queries go through the comparison engine, falling back to
// GSA backward substitution (the paper's Figure 4: MP >= M*P), and a
// monotonic-counter idiom recognizer handles the BDNA Figure 5 pattern
// (compress loop writing IND(P), P a monotonic counter, then gather via
// A(IND(L))).
#pragma once

#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct PrivatizationResult {
  std::vector<Symbol*> private_scalars;
  std::vector<Symbol*> lastvalue_scalars;  ///< subset needing copy-out
  std::vector<Symbol*> private_arrays;
  std::vector<Symbol*> blocked;  ///< assigned scalars/arrays left shared

  /// Records the result in a loop's ParallelInfo: private_vars lists the
  /// private scalars, then the private arrays; lastvalue_vars the scalars
  /// needing copy-out.
  void record(ParallelInfo& par) const;
};

/// Analyzes `loop` within `unit`.  Does not transform the program; the
/// DOALL pass records the result in the loop's ParallelInfo (private
/// storage is instantiated by the execution engine).  Flow facts and the
/// GSA engine come from `am`, so repeated queries across loops within a
/// pass run hit the cache.
PrivatizationResult analyze_privatization(ProgramUnit& unit, DoStmt* loop,
                                          const Options& opts,
                                          Diagnostics& diags,
                                          AnalysisManager& am);

}  // namespace polaris
