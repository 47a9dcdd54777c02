// FactContext: what is known about variables at a program point.
//
// This is the "range propagation" substrate of the paper (Section 3.3.1):
// symbolic lower/upper bounds for variables, collected from DO headers,
// IF conditions and PARAMETER constants, which the expression-comparison
// engine consumes.  Facts are stored uniformly as polynomials known to be
// >= 0; variable ranges are derived views of those facts.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "symbolic/poly.h"

namespace polaris {

class FactContext {
 public:
  /// Records the fact `f >= 0`.
  void add_ge0(Polynomial f);
  /// Records `e >= 0` for an expression (canonicalized first).
  void add_ge0(const Expression& e);
  /// Records lo <= s <= hi (either side may be null).
  void add_range(Symbol* s, const Expression* lo, const Expression* hi);
  /// Records a DO-header fact: index in [init, limit] and limit >= init
  /// (dependence analysis assumes at least one iteration — an empty loop
  /// carries no dependence).  Only called for positive constant steps;
  /// negative steps swap the bounds at the call site.
  void add_loop(Symbol* index, const Expression& init,
                const Expression& limit);

  /// Elimination priority for the bounding recursion: higher rank atoms are
  /// eliminated first (innermost loop indices get the highest ranks).
  void set_rank(AtomId a, int rank);
  int rank(AtomId a) const;

  /// Lower-bound candidates for atom `a`: polynomials L with a >= L, in
  /// fact order.  Derived once per atom; valid until the next add_ge0.
  const std::vector<Polynomial>& lower_bounds(AtomId a) const;
  /// Upper-bound candidates for atom `a`: polynomials U with a <= U, in
  /// fact order.  Derived once per atom; valid until the next add_ge0.
  const std::vector<Polynomial>& upper_bounds(AtomId a) const;

  const std::vector<Polynomial>& facts() const { return facts_; }

 private:
  /// The bounds one atom takes from the facts.
  struct Bounds {
    std::vector<Polynomial> lower;
    std::vector<Polynomial> upper;
  };
  const Bounds& bounds_of(AtomId a) const;

  std::vector<Polynomial> facts_;  // each known >= 0
  std::map<AtomId, int> ranks_;
  /// Derived from facts_ on an atom's first query (the bounding recursion
  /// asks at every level) and dropped by add_ge0.  Queries therefore
  /// write: one context must not serve two threads at once.
  mutable std::map<AtomId, Bounds> bounds_;
};

}  // namespace polaris
