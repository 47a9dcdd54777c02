#include "symbolic/compare.h"

#include <algorithm>

namespace polaris {

namespace {

/// Atoms of f ordered by descending elimination rank (innermost first);
/// rank ties broken by AtomId for determinism.
std::vector<AtomId> elimination_order(const Polynomial& f,
                                      const FactContext& ctx) {
  std::vector<AtomId> atoms = f.atoms();
  std::stable_sort(atoms.begin(), atoms.end(), [&](AtomId x, AtomId y) {
    return ctx.rank(x) > ctx.rank(y);
  });
  return atoms;
}

}  // namespace

bool prove_ge0(const Polynomial& f, const FactContext& ctx, int depth) {
  if (f.is_constant()) return f.constant_value() >= Rational(0);
  if (depth <= 0) return false;

  for (AtomId a : elimination_order(f, ctx)) {
    int deg = f.degree_in(a);
    Monotonicity mono = monotonicity(f, a, ctx, depth - 1);
    if (mono == Monotonicity::NonDecreasing ||
        (deg == 1 && mono == Monotonicity::Unknown)) {
      // Minimum over [lo, hi] is at a lower bound (for deg==1 we must also
      // check that the leading coefficient situation still makes a lower
      // bound the minimizer; if monotonicity is unknown, check both ends).
      bool need_both = (mono == Monotonicity::Unknown);
      for (const Polynomial& lo : ctx.lower_bounds(a)) {
        if (lo.contains(a)) continue;
        if (!prove_ge0(f.substitute(a, lo), ctx, depth - 1)) continue;
        if (!need_both) return true;
        for (const Polynomial& hi : ctx.upper_bounds(a)) {
          if (hi.contains(a)) continue;
          if (prove_ge0(f.substitute(a, hi), ctx, depth - 1)) return true;
        }
      }
    }
    if (mono == Monotonicity::NonIncreasing) {
      for (const Polynomial& hi : ctx.upper_bounds(a)) {
        if (hi.contains(a)) continue;
        if (prove_ge0(f.substitute(a, hi), ctx, depth - 1)) return true;
      }
    }
  }
  return false;
}

bool prove_gt0(const Polynomial& f, const FactContext& ctx, int depth) {
  // Clear coefficient denominators: f > 0 iff D*f > 0 for D > 0, and for
  // integer-valued D*f (integer atoms), D*f > 0 iff D*f - 1 >= 0.
  std::int64_t den = 1;
  for (const auto& [m, c] : f.terms()) {
    std::int64_t d = c.den();
    std::int64_t g = std::gcd(den, d);
    den = den / g * d;
  }
  const Polynomial one = Polynomial::constant(Rational(1));
  if (den == 1) return prove_ge0(f - one, ctx, depth);
  return prove_ge0(f * Polynomial::constant(Rational(den)) - one, ctx, depth);
}

Monotonicity monotonicity(const Polynomial& f, AtomId a,
                          const FactContext& ctx, int depth) {
  if (!f.contains(a)) return Monotonicity::Constant;
  Polynomial delta = f.forward_difference(a);
  if (delta.is_zero()) return Monotonicity::Constant;
  if (prove_ge0(delta, ctx, depth)) return Monotonicity::NonDecreasing;
  if (prove_ge0(-delta, ctx, depth)) return Monotonicity::NonIncreasing;
  return Monotonicity::Unknown;
}

Extremes eliminate_range(const Polynomial& f, AtomId a, const Polynomial& lo,
                         const Polynomial& hi, const FactContext& ctx,
                         int depth) {
  Extremes out;
  if (!f.contains(a)) {
    out.min = f;
    out.max = f;
    return out;
  }
  p_assert_msg(!lo.contains(a) && !hi.contains(a),
               "loop bounds reference the loop's own index");
  Monotonicity mono = monotonicity(f, a, ctx, depth);
  switch (mono) {
    case Monotonicity::Constant:
      p_unreachable("contains(a) but constant in a");
    case Monotonicity::NonDecreasing:
      out.min = f.substitute(a, lo);
      out.max = f.substitute(a, hi);
      return out;
    case Monotonicity::NonIncreasing:
      out.min = f.substitute(a, hi);
      out.max = f.substitute(a, lo);
      return out;
    case Monotonicity::Unknown:
      break;
  }
  // Linear occurrences are extremal at the interval endpoints even when the
  // coefficient's sign is unknown — but we do not know which endpoint is
  // which, so no single min/max polynomial exists.  Give up (the range test
  // will report "no" for this loop order and may try a permutation).
  return out;
}

// --- expression-level wrappers -------------------------------------------------

bool prove_le(const Expression& e1, const Expression& e2,
              const FactContext& ctx) {
  return prove_ge0(Polynomial::from_expr(e2) - Polynomial::from_expr(e1),
                   ctx);
}

bool prove_lt(const Expression& e1, const Expression& e2,
              const FactContext& ctx) {
  return prove_gt0(Polynomial::from_expr(e2) - Polynomial::from_expr(e1),
                   ctx);
}

Cmp compare(const Expression& e1, const Expression& e2,
            const FactContext& ctx) {
  Polynomial d = Polynomial::from_expr(e1) - Polynomial::from_expr(e2);
  if (d.is_zero()) return Cmp::EQ;
  if (prove_gt0(d, ctx)) return Cmp::GT;
  if (prove_gt0(-d, ctx)) return Cmp::LT;
  if (prove_ge0(d, ctx)) return Cmp::GE;
  if (prove_ge0(-d, ctx)) return Cmp::LE;
  return Cmp::Unknown;
}

}  // namespace polaris
