// Structured dataflow queries over the flat statement list.
//
// Polaris works on structured Fortran (DO/ENDDO, block IF); these helpers
// compute the flow facts the restructuring passes need — must/may defined
// symbols, upward-exposed uses, loop invariance, liveness after a loop —
// by walking the statement structure directly.  GOTOs are handled
// conservatively: a region containing a GOTO (or a statement carrying a
// label that could be a GOTO target) reports worst-case answers.
#pragma once

#include <set>
#include <vector>

#include "ir/program.h"

namespace polaris {

/// Scalar symbols definitely assigned on every path through [first, last]
/// (inclusive).  Array assignments do not count (partial definition);
/// CALLs make their actual-argument symbols *may*-defined only.
SymbolSet must_defined_scalars(Statement* first, Statement* last);

/// Symbols (scalar or array base) possibly written in [first, last],
/// including DO indices and symbols passed to CALLs.
SymbolSet may_defined_symbols(Statement* first, Statement* last);

/// Scalar symbols with an upward-exposed use in [first, last]: a use that
/// may execute before any definition of the symbol in the region.
SymbolSet upward_exposed_scalars(Statement* first, Statement* last);

/// True if the region contains a GOTO, a RETURN/STOP, or a statement whose
/// label some GOTO of the unit targets (a join from elsewhere).  A label
/// that no GOTO names does not count.
bool has_irregular_flow(Statement* first, Statement* last);

/// True if `e` is invariant in `loop`: it references no symbol that may be
/// defined in the loop body, no enclosing loop index of `loop` itself, and
/// no user function calls.
bool is_loop_invariant(const Expression& e, DoStmt* loop);

/// Same, with the loop's may-defined set supplied by the caller (the
/// AnalysisManager caches it; the two-argument form recomputes per call).
bool is_loop_invariant(const Expression& e, DoStmt* loop,
                       const SymbolSet& loop_may_defined);

/// True if scalar `s` may be used after `loop` exits before being
/// redefined (conservative: region scan to the end of the unit; GOTO makes
/// everything live).
bool is_live_after(DoStmt* loop, Symbol* s);

/// The loop nest around `s` (outermost first), up to and including `stop`
/// (null = all).
std::vector<DoStmt*> enclosing_loops(Statement* s, DoStmt* stop = nullptr);

}  // namespace polaris
