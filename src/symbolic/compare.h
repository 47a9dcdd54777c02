// Symbolic expression comparison and range elimination.
//
// The decision procedure behind the range test (paper Section 3.3.1):
// to prove f >= 0, eliminate variables one at a time — establish the
// monotonicity of f in a variable v via the sign of its forward difference
// f(v+1) - f(v), then replace v by the appropriate range endpoint from the
// FactContext, recursing until the polynomial is constant.  Degree-1
// occurrences are also handled without monotonicity (a linear function is
// extremal at interval endpoints).
#pragma once

#include <optional>

#include "symbolic/context.h"

namespace polaris {

/// Outcome of comparing two expressions e1 ? e2.
enum class Cmp { Unknown, LT, LE, EQ, GE, GT };

/// Proves f >= 0 under the facts in `ctx` (false = could not prove, not
/// "false").  `depth` bounds the elimination recursion.
bool prove_ge0(const Polynomial& f, const FactContext& ctx, int depth = 12);

/// Proves f > 0.  For integer-valued polynomials this uses f*D >= 1 with D
/// the common coefficient denominator.
bool prove_gt0(const Polynomial& f, const FactContext& ctx, int depth = 12);

/// Expression-level comparisons (canonicalize, then prove on differences).
bool prove_le(const Expression& e1, const Expression& e2,
              const FactContext& ctx);
bool prove_lt(const Expression& e1, const Expression& e2,
              const FactContext& ctx);

/// Strongest provable relation between e1 and e2.
Cmp compare(const Expression& e1, const Expression& e2,
            const FactContext& ctx);

/// Monotonicity classification of f in atom `a` (paper: forward-difference
/// test).  NonDecreasing means f(a+1) - f(a) >= 0 is provable.
enum class Monotonicity { Unknown, Constant, NonDecreasing, NonIncreasing };
Monotonicity monotonicity(const Polynomial& f, AtomId a,
                          const FactContext& ctx, int depth = 12);

/// Extreme values of f as atom `a` sweeps [lo, hi]: min/max are polynomials
/// in the remaining atoms, or nullopt when monotonicity in `a` cannot be
/// established (and f is not linear in `a`).  This is the per-loop range
/// elimination step of the range test.
struct Extremes {
  std::optional<Polynomial> min;
  std::optional<Polynomial> max;
};
Extremes eliminate_range(const Polynomial& f, AtomId a, const Polynomial& lo,
                         const Polynomial& hi, const FactContext& ctx,
                         int depth = 12);

}  // namespace polaris
