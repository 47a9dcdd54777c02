// Data-dependence driver: decides whether a loop carries array dependences.
//
// Applies, in order, the tests enabled by Options: GCD, Banerjee with
// direction vectors (the "current compiler" battery), then the range test
// (Polaris's addition).  Scalars are not handled here — the DOALL pass
// deals with them via privatization, induction and reduction analysis and
// passes the resolved symbols in `exempt`.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "dep/access.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct LoopDepStats {
  int pairs = 0;           ///< access pairs needing a test
  int by_gcd = 0;          ///< proven independent by the GCD test
  int by_banerjee = 0;     ///< proven by Banerjee with directions
  int by_rangetest = 0;    ///< proven by the range test
  std::vector<std::string> blockers;  ///< unresolved pairs (assumed deps)

  bool parallel() const { return blockers.empty(); }
};

/// Tests every array-access pair in `loop` (skipping arrays in `exempt`)
/// for dependences carried by `loop`.  `context` labels diagnostics, e.g.
/// "main/do_100".  Range-test fact contexts are memoized in `am` so probe
/// and final runs over the same loop share them.
LoopDepStats test_loop_arrays(DoStmt* loop, const Options& opts,
                              Diagnostics& diags,
                              const SymbolSet& exempt,
                              const std::string& context,
                              AnalysisManager& am);

}  // namespace polaris
