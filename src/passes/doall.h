// DOALL recognition driver.
//
// For each loop, combines the analyses in the order Polaris applies them:
// reduction recognition, scalar/array privatization, then array dependence
// testing with resolved symbols exempted.  A loop with no remaining
// carried dependences is marked parallel in its ParallelInfo annotation;
// otherwise the first blocker is recorded as the serialization reason.
// With the run-time option enabled, loops blocked only by subscripted
// subscripts are marked for speculative (PD-test) execution instead.
#pragma once

#include <set>
#include <string>

#include "analysis/analysis_manager.h"
#include "ir/program.h"
#include "support/diagnostics.h"
#include "support/options.h"

namespace polaris {

struct DoallSummary {
  int loops = 0;
  int parallel = 0;
  int speculative = 0;
};

/// Analyzes and annotates every loop of `unit`.  With a `program`, pure
/// functions are computed interprocedurally so calls to them do not
/// serialize loops; a null `program` treats every user function as
/// opaque.  The pass only annotates, and its sub-analyses (reductions,
/// privatization, dependence tests) share `am`'s cached flow facts.
/// `pure` (may be null) is a precomputed pure-function set.  Under
/// parallel per-unit execution the pass manager snapshots purity once per
/// pass group, before units fan out to workers: pure_functions() reads
/// every unit's IR, and other workers are concurrently rewriting theirs.
/// Null computes the set here (sequential callers, tests).
DoallSummary mark_doall_loops(Program* program, ProgramUnit& unit,
                              const Options& opts, Diagnostics& diags,
                              AnalysisManager& am,
                              const std::set<std::string>* pure);

}  // namespace polaris
