#include "symbolic/context.h"

namespace polaris {

void FactContext::add_ge0(Polynomial f) {
  if (f.is_constant()) return;  // constants carry no variable information
  facts_.push_back(std::move(f));
  bounds_.clear();
}

void FactContext::add_ge0(const Expression& e) {
  add_ge0(Polynomial::from_expr(e));
}

void FactContext::add_range(Symbol* s, const Expression* lo,
                            const Expression* hi) {
  Polynomial v = Polynomial::symbol(s);
  if (lo) add_ge0(v - Polynomial::from_expr(*lo));
  if (hi) add_ge0(Polynomial::from_expr(*hi) - v);
}

void FactContext::add_loop(Symbol* index, const Expression& init,
                           const Expression& limit) {
  add_range(index, &init, &limit);
  // limit >= init (at least one iteration).
  add_ge0(Polynomial::from_expr(limit) - Polynomial::from_expr(init));
}

void FactContext::set_rank(AtomId a, int rank) { ranks_[a] = rank; }

int FactContext::rank(AtomId a) const {
  auto it = ranks_.find(a);
  return it == ranks_.end() ? 0 : it->second;
}

const FactContext::Bounds& FactContext::bounds_of(AtomId a) const {
  auto it = bounds_.find(a);
  if (it != bounds_.end()) return it->second;
  // A fact f = c*a + g >= 0, with c a constant and g free of a, bounds a:
  // a >= -g/c for positive c, a <= -g/c for negative c.  Built aside and
  // stored only once complete, so a governor trip caches nothing.
  Bounds b;
  for (const Polynomial& f : facts_) {
    if (f.degree_in(a) != 1) continue;
    Rational c = f.coefficient(Monomial::atom(a));
    if (c.is_zero()) continue;  // 'a' only occurs in composite monomials
    Polynomial g = f - Polynomial::atom(a) * Polynomial::constant(c);
    if (g.contains(a)) continue;
    (c.sign() > 0 ? b.lower : b.upper)
        .push_back(g * Polynomial::constant(Rational(-1) / c));
  }
  return bounds_.emplace(a, std::move(b)).first->second;
}

const std::vector<Polynomial>& FactContext::lower_bounds(AtomId a) const {
  return bounds_of(a).lower;
}

const std::vector<Polynomial>& FactContext::upper_bounds(AtomId a) const {
  return bounds_of(a).upper;
}

}  // namespace polaris
