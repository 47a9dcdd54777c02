// Array-region helpers shared by privatization and dependence analysis:
// the interval of one subscript dimension as the loops between an access
// and an enclosing loop sweep their ranges.
#pragma once

#include <map>
#include <optional>
#include <span>

#include "ir/program.h"
#include "symbolic/compare.h"

namespace polaris {

/// A closed symbolic interval [lo, hi].
struct Interval {
  Polynomial lo;
  Polynomial hi;
};

/// A loop's bounds as polynomials oriented so lo <= index <= hi (a
/// negative constant step swaps init and limit).
struct LoopBounds {
  Polynomial lo;
  Polynomial hi;
};

/// Each loop's oriented bounds, converted from its DO header on the first
/// request and handed out again on later ones.  A memo must not outlive
/// the IR state it read: one serves one range-test query or one array's
/// privatization check.
class LoopBoundsMemo {
 public:
  /// Null when the loop's step is not a nonzero integer constant.
  const LoopBounds* get(DoStmt* loop);

 private:
  std::map<const DoStmt*, std::optional<LoopBounds>> bounds_;
};

/// True if any atom of `p` is an opaque expression referencing `sym`
/// (e.g. z(k) after k was eliminated): a sweep over `sym` whose result
/// still depends on it that way proves nothing.
bool references_through_atoms(const Polynomial& p, const Symbol* sym);

/// Builds a FactContext with the bounds of every loop enclosing `s`
/// (outer loops included), ranked innermost-first for elimination, plus
/// the guard conditions of enclosing IF arms (range propagation "from the
/// program's control flow", paper Section 3.3.1).
FactContext loop_fact_context(Statement* s);

/// Adds facts derived from the conditions of the IF arms enclosing `s`:
/// a statement in the taken arm of `if (a .ge. b)` contributes a - b >= 0,
/// conjunctions are split, strict integer comparisons are tightened by 1.
/// (ELSE arms contribute nothing — negations are not synthesized.)
void add_guard_facts(FactContext& ctx, Statement* s);

/// Adds one loop's bound facts (index range + non-empty trip assumption)
/// to `ctx` with the given elimination rank.  Only the rank for
/// non-constant steps.
void add_loop_facts(FactContext& ctx, DoStmt* loop, int rank,
                    LoopBoundsMemo& bounds);

/// Widens `range` as each loop of `loops` sweeps its index over its
/// bounds, in the given order (innermost first): the lower end takes its
/// minimum, the upper end its maximum.  nullopt when a loop has a
/// non-constant step, monotonicity fails, or the result still depends on
/// a swept index through an opaque atom.
std::optional<Interval> sweep_loops(Interval range,
                                    std::span<DoStmt* const> loops,
                                    const FactContext& ctx,
                                    LoopBoundsMemo& bounds);

/// The interval of subscript dimension `dim` of `ref` at `stmt` as every
/// loop strictly inside `within` (and enclosing `stmt`) sweeps its range;
/// `within`'s own index and outer indices stay symbolic.  nullopt as for
/// sweep_loops.
std::optional<Interval> access_interval(const ArrayRef& ref, int dim,
                                        Statement* stmt, DoStmt* within,
                                        const FactContext& ctx,
                                        LoopBoundsMemo& bounds);

/// Proves interval containment inner ⊆ outer under `ctx`.
bool interval_contains(const Interval& outer, const Interval& inner,
                       const FactContext& ctx);

}  // namespace polaris
