#include "symbolic/poly.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "ir/build.h"
#include "support/governor.h"

namespace polaris {

// --- AtomTable ------------------------------------------------------------------

namespace {
thread_local AtomTable* tls_atom_table = nullptr;

/// Governor ceiling on a polynomial about to hold `n` terms; a no-op (one
/// TLS read) when the thread's compile is ungoverned.  Throws
/// ResourceBlowup, caught conservatively at dep-test / simplify query
/// boundaries or by the pass manager's degradation ladder.
inline void governor_note_terms(std::size_t n) {
  if (ResourceGovernor* gov = ResourceGovernor::current())
    gov->check_poly_terms(n);
}
}  // namespace

AtomTable& AtomTable::current() {
  if (tls_atom_table != nullptr) return *tls_atom_table;
  // Fallback for code running outside any compilation scope (standalone
  // symbolic manipulation, tests).  Thread-local, so even unscoped use
  // never shares mutable state across threads.
  thread_local AtomTable fallback;
  return fallback;
}

AtomTable::Scope::Scope(AtomTable* table) : prev_(tls_atom_table) {
  tls_atom_table = table;
}

AtomTable::Scope::~Scope() { tls_atom_table = prev_; }

AtomId AtomTable::intern(const Expression& e) {
  std::size_t h = e.hash();
  auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it)
    if (atoms_[static_cast<size_t>(it->second)]->equals(e)) return it->second;
  // Ceiling + fuel are charged before the atom is stored, so a tripped
  // governor leaves the table exactly as it was.
  if (ResourceGovernor* gov = ResourceGovernor::current()) {
    gov->check_atoms(atoms_.size() + 1);
    gov->charge(4);
  }
  AtomId id = static_cast<AtomId>(atoms_.size());
  atoms_.push_back(e.clone());
  index_.emplace(h, id);
  if (e.kind() == ExprKind::VarRef)
    symbol_ids_.emplace(static_cast<const VarRef&>(e).symbol(), id);
  return id;
}

AtomId AtomTable::intern_symbol(Symbol* s) {
  auto it = symbol_ids_.find(s);
  if (it != symbol_ids_.end()) return it->second;
  VarRef ref(s);
  return intern(ref);
}

const Expression& AtomTable::expr(AtomId id) const {
  p_assert(id >= 0 && static_cast<size_t>(id) < atoms_.size());
  return *atoms_[static_cast<size_t>(id)];
}

Symbol* AtomTable::symbol(AtomId id) const {
  const Expression& e = expr(id);
  if (e.kind() == ExprKind::VarRef)
    return static_cast<const VarRef&>(e).symbol();
  return nullptr;
}

// --- Monomial ------------------------------------------------------------------

Monomial Monomial::atom(AtomId id, int power) {
  p_assert(power > 0);
  Monomial m;
  m.factors_.emplace_back(id, power);
  return m;
}

int Monomial::degree() const {
  int d = 0;
  for (const auto& [id, p] : factors_) d += p;
  return d;
}

int Monomial::degree_in(AtomId id) const {
  for (const auto& [a, p] : factors_)
    if (a == id) return p;
  return 0;
}

Monomial Monomial::operator*(const Monomial& o) const {
  Monomial out;
  auto a = factors_.begin();
  auto b = o.factors_.begin();
  while (a != factors_.end() || b != o.factors_.end()) {
    if (b == o.factors_.end() || (a != factors_.end() && a->first < b->first)) {
      out.factors_.push_back(*a++);
    } else if (a == factors_.end() || b->first < a->first) {
      out.factors_.push_back(*b++);
    } else {
      out.factors_.emplace_back(a->first, a->second + b->second);
      ++a;
      ++b;
    }
  }
  return out;
}

Monomial Monomial::without(AtomId id, int power) const {
  Monomial out;
  bool found = false;
  for (const auto& [a, p] : factors_) {
    if (a == id) {
      p_assert_msg(p >= power, "monomial division underflow");
      found = true;
      if (p > power) out.factors_.emplace_back(a, p - power);
    } else {
      out.factors_.emplace_back(a, p);
    }
  }
  p_assert_msg(found || power == 0, "monomial lacks requested factor");
  return out;
}

// --- Polynomial ------------------------------------------------------------------

Polynomial Polynomial::constant(const Rational& r) {
  Polynomial p;
  p.add_term(Monomial(), r);
  return p;
}

Polynomial Polynomial::atom(AtomId id) {
  Polynomial p;
  p.add_term(Monomial::atom(id), Rational(1));
  return p;
}

Polynomial Polynomial::symbol(Symbol* s) {
  return atom(AtomTable::current().intern_symbol(s));
}

void Polynomial::add_term(const Monomial& m, const Rational& c) {
  if (c.is_zero()) return;
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), m,
      [](const Term& t, const Monomial& key) { return t.first < key; });
  if (it != terms_.end() && it->first == m) {
    it->second += c;
    if (it->second.is_zero()) terms_.erase(it);
  } else {
    terms_.emplace(it, m, c);
    governor_note_terms(terms_.size());
  }
}

Polynomial Polynomial::normalized(TermList raw) {
  if (ResourceGovernor* gov = ResourceGovernor::current())
    gov->charge(raw.size());
  std::sort(raw.begin(), raw.end(),
            [](const Term& x, const Term& y) { return x.first < y.first; });
  Polynomial out;
  out.terms_.reserve(raw.size());
  for (Term& t : raw) {
    if (!out.terms_.empty() && out.terms_.back().first == t.first) {
      out.terms_.back().second += t.second;
      if (out.terms_.back().second.is_zero()) out.terms_.pop_back();
    } else if (!t.second.is_zero()) {
      out.terms_.push_back(std::move(t));
    }
  }
  governor_note_terms(out.terms_.size());
  return out;
}

bool Polynomial::is_constant() const {
  return terms_.empty() ||
         (terms_.size() == 1 && terms_.front().first.is_unit());
}

Rational Polynomial::constant_value() const {
  p_assert_msg(is_constant(), "polynomial is not constant");
  return terms_.empty() ? Rational(0) : terms_.front().second;
}

Rational Polynomial::coefficient(const Monomial& m) const {
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), m,
      [](const Term& t, const Monomial& key) { return t.first < key; });
  return it == terms_.end() || !(it->first == m) ? Rational(0) : it->second;
}

int Polynomial::degree_in(AtomId id) const {
  int d = 0;
  for (const auto& [m, c] : terms_) d = std::max(d, m.degree_in(id));
  return d;
}

std::vector<AtomId> Polynomial::atoms() const {
  std::vector<AtomId> out;
  for (const auto& [m, c] : terms_)
    for (const auto& [a, p] : m.factors())
      if (std::find(out.begin(), out.end(), a) == out.end())
        out.push_back(a);
  std::sort(out.begin(), out.end());
  return out;
}

Polynomial Polynomial::operator-() const {
  Polynomial out;
  out.terms_.reserve(terms_.size());
  for (const auto& [m, c] : terms_) out.terms_.emplace_back(m, -c);
  return out;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
  Polynomial out;
  out.terms_.reserve(terms_.size() + o.terms_.size());
  auto a = terms_.begin();
  auto b = o.terms_.begin();
  while (a != terms_.end() && b != o.terms_.end()) {
    if (a->first < b->first) {
      out.terms_.push_back(*a++);
    } else if (b->first < a->first) {
      out.terms_.push_back(*b++);
    } else {
      Rational c = a->second + b->second;
      if (!c.is_zero()) out.terms_.emplace_back(a->first, c);
      ++a;
      ++b;
    }
  }
  out.terms_.insert(out.terms_.end(), a, terms_.end());
  out.terms_.insert(out.terms_.end(), b, o.terms_.end());
  governor_note_terms(out.terms_.size());
  return out;
}

Polynomial Polynomial::operator-(const Polynomial& o) const {
  Polynomial out;
  out.terms_.reserve(terms_.size() + o.terms_.size());
  auto a = terms_.begin();
  auto b = o.terms_.begin();
  while (a != terms_.end() && b != o.terms_.end()) {
    if (a->first < b->first) {
      out.terms_.push_back(*a++);
    } else if (b->first < a->first) {
      out.terms_.emplace_back(b->first, -b->second);
      ++b;
    } else {
      Rational c = a->second - b->second;
      if (!c.is_zero()) out.terms_.emplace_back(a->first, c);
      ++a;
      ++b;
    }
  }
  out.terms_.insert(out.terms_.end(), a, terms_.end());
  for (; b != o.terms_.end(); ++b)
    out.terms_.emplace_back(b->first, -b->second);
  governor_note_terms(out.terms_.size());
  return out;
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
  TermList raw;
  raw.reserve(terms_.size() * o.terms_.size());
  for (const auto& [m1, c1] : terms_)
    for (const auto& [m2, c2] : o.terms_) raw.emplace_back(m1 * m2, c1 * c2);
  return normalized(std::move(raw));
}

Polynomial Polynomial::pow(int k) const {
  p_assert(k >= 0);
  if (k == 1) return *this;
  Polynomial out = constant(Rational(1));
  for (int i = 0; i < k; ++i) out = out * *this;
  return out;
}

Polynomial Polynomial::substitute(AtomId id, const Polynomial& value) const {
  TermList raw;
  raw.reserve(terms_.size());
  // value.pow(d) is shared across every term of degree d (the dominant
  // cost of the old term-at-a-time rebuild).
  std::vector<std::optional<Polynomial>> powers;
  for (const auto& [m, c] : terms_) {
    int d = m.degree_in(id);
    if (d == 0) {
      raw.emplace_back(m, c);
      continue;
    }
    const Polynomial* vp = &value;
    if (d > 1) {
      if (powers.size() <= static_cast<std::size_t>(d))
        powers.resize(static_cast<std::size_t>(d) + 1);
      std::optional<Polynomial>& pd = powers[static_cast<std::size_t>(d)];
      if (!pd) pd = value.pow(d);
      vp = &*pd;
    }
    Monomial rest = m.without(id, d);
    for (const auto& [vm, vc] : vp->terms_)
      raw.emplace_back(rest * vm, c * vc);
  }
  return normalized(std::move(raw));
}

Polynomial Polynomial::forward_difference(AtomId id) const {
  if (degree_in(id) <= 1) {
    // Linear in `id`: c*m*id becomes c*m*(id+1), so each such term leaves
    // c*m behind and every other term cancels.
    // Distinct monomials stay distinct without `id`, so nothing cancels;
    // normalized() only restores the monomial order.
    TermList raw;
    for (const auto& [m, c] : terms_)
      if (m.contains(id)) raw.emplace_back(m.without(id, 1), c);
    return normalized(std::move(raw));
  }
  Polynomial shifted =
      substitute(id, Polynomial::atom(id) + constant(Rational(1)));
  return shifted - *this;
}

Polynomial faulhaber(int k, AtomId n) {
  // S_k(n) = sum_{i=1}^{n} i^k as an exact polynomial, k <= 6.
  Polynomial N = Polynomial::atom(n);
  Polynomial one = Polynomial::constant(Rational(1));
  auto C = [](std::int64_t num, std::int64_t den = 1) {
    return Polynomial::constant(Rational(num, den));
  };
  switch (k) {
    case 0:
      return N;
    case 1:  // n(n+1)/2
      return N * (N + one) * C(1, 2);
    case 2:  // n(n+1)(2n+1)/6
      return N * (N + one) * (C(2) * N + one) * C(1, 6);
    case 3:  // (n(n+1)/2)^2
      return (N * (N + one) * C(1, 2)).pow(2);
    case 4:  // n(n+1)(2n+1)(3n^2+3n-1)/30
      return N * (N + one) * (C(2) * N + one) *
             (C(3) * N.pow(2) + C(3) * N - one) * C(1, 30);
    case 5:  // n^2(n+1)^2(2n^2+2n-1)/12
      return N.pow(2) * (N + one).pow(2) *
             (C(2) * N.pow(2) + C(2) * N - one) * C(1, 12);
    case 6:  // n(n+1)(2n+1)(3n^4+6n^3-3n+1)/42
      return N * (N + one) * (C(2) * N + one) *
             (C(3) * N.pow(4) + C(6) * N.pow(3) - C(3) * N + one) * C(1, 42);
    default:
      p_assert_msg(false, "faulhaber: unsupported exponent " +
                              std::to_string(k));
  }
  p_unreachable("faulhaber");
}

Polynomial Polynomial::sum_over(AtomId id, const Polynomial& lo,
                                const Polynomial& hi) const {
  // Write f = sum_k g_k(rest) * id^k and sum each power exactly:
  //   sum_{i=lo}^{hi} i^k = S_k(hi) - S_k(lo-1).
  int maxdeg = degree_in(id);
  p_assert_msg(maxdeg <= 6, "sum_over: degree too high");
  // Collect g_k.
  std::vector<Polynomial> g(static_cast<size_t>(maxdeg) + 1);
  for (const auto& [m, c] : terms_)
    g[static_cast<size_t>(m.degree_in(id))].add_term(
        m.degree_in(id) > 0 ? m.without(id, m.degree_in(id)) : m, c);
  Polynomial lo_minus_1 = lo - constant(Rational(1));
  Polynomial out;
  for (int k = 0; k <= maxdeg; ++k) {
    if (g[static_cast<size_t>(k)].is_zero()) continue;
    Polynomial sk = faulhaber(k, id);
    Polynomial span = sk.substitute(id, hi) - sk.substitute(id, lo_minus_1);
    out = out + g[static_cast<size_t>(k)] * span;
  }
  return out;
}

// --- conversion from expressions -----------------------------------------------

namespace {

std::optional<Rational> rational_of_real(double v) {
  // Accept only values that are exactly small rationals with power-of-two
  // denominators (doubles are dyadic); bound the denominator to keep exact.
  double intpart;
  if (std::modf(v, &intpart) == 0.0 && std::abs(v) < 9e15)
    return Rational(static_cast<std::int64_t>(v));
  for (std::int64_t den : {2, 4, 8, 16, 32, 64, 128, 256}) {
    double scaled = v * static_cast<double>(den);
    if (std::modf(scaled, &intpart) == 0.0 && std::abs(scaled) < 9e15)
      return Rational(static_cast<std::int64_t>(scaled), den);
  }
  return std::nullopt;
}

Polynomial opaque(const Expression& e) {
  return Polynomial::atom(AtomTable::current().intern(e));
}

Polynomial convert(const Expression& e, bool exact_division) {
  // One fuel tick per conversion node: Expression→Polynomial traffic is
  // the compile's dominant symbolic cost, so it is the fuel meter's
  // primary clock.
  if (ResourceGovernor* gov = ResourceGovernor::current()) gov->charge(1);
  switch (e.kind()) {
    case ExprKind::IntConst:
      return Polynomial::constant(
          Rational(static_cast<const IntConst&>(e).value()));
    case ExprKind::RealConst: {
      auto r = rational_of_real(static_cast<const RealConst&>(e).value());
      return r ? Polynomial::constant(*r) : opaque(e);
    }
    case ExprKind::VarRef: {
      Symbol* s = static_cast<const VarRef&>(e).symbol();
      if (s->kind() == SymbolKind::Parameter && s->param_value())
        return convert(*s->param_value(), exact_division);
      return Polynomial::symbol(s);
    }
    case ExprKind::UnOp: {
      const auto& u = static_cast<const UnOp&>(e);
      if (u.op() == UnOpKind::Neg) return -convert(u.operand(), exact_division);
      return opaque(e);
    }
    case ExprKind::BinOp:
      break;
    default:
      return opaque(e);  // ArrayRef, FuncCall, String, Logical
  }
  const auto& b = static_cast<const BinOp&>(e);
  switch (b.op()) {
    case BinOpKind::Add:
      return convert(b.left(), exact_division) +
             convert(b.right(), exact_division);
    case BinOpKind::Sub:
      return convert(b.left(), exact_division) -
             convert(b.right(), exact_division);
    case BinOpKind::Mul:
      return convert(b.left(), exact_division) *
             convert(b.right(), exact_division);
    case BinOpKind::Div: {
      Polynomial den = convert(b.right(), exact_division);
      if (den.is_constant() && !den.constant_value().is_zero()) {
        Polynomial num = convert(b.left(), exact_division);
        Rational scale = Rational(1) / den.constant_value();
        if (exact_division || b.type().is_floating() || num.is_constant())
          return num * Polynomial::constant(scale);
      }
      return opaque(e);
    }
    case BinOpKind::Pow: {
      Polynomial ex = convert(b.right(), exact_division);
      if (ex.is_constant() && ex.constant_value().is_integer()) {
        std::int64_t k = ex.constant_value().as_integer();
        if (k >= 0 && k <= 8)
          return convert(b.left(), exact_division).pow(static_cast<int>(k));
      }
      return opaque(e);
    }
    default:
      return opaque(e);  // comparisons/logicals are not polynomial
  }
}

}  // namespace

Polynomial Polynomial::from_expr(const Expression& e, bool exact_division) {
  // Constant integer division of constants must still truncate: handled in
  // convert() by only folding when numerator is constant too in that mode.
  Polynomial p = convert(e, exact_division);
  if (!exact_division && p.is_constant()) {
    // Fortran integer constant folding truncates; leave rationals alone
    // only if they are exact integers.
    Rational c = p.constant_value();
    if (!c.is_integer() && e.type().is_integer()) {
      // Truncate toward zero as Fortran would.
      std::int64_t t = c.num() / c.den();
      return constant(Rational(t));
    }
  }
  return p;
}

// --- conversion back to expressions ----------------------------------------------

ExprPtr Polynomial::to_expr() const {
  if (terms_.empty()) return ib::ic(0);

  // Common denominator of all coefficients.
  std::int64_t den = 1;
  for (const auto& [m, c] : terms_) {
    std::int64_t d = c.den();
    std::int64_t g = std::gcd(den, d);
    den = den / g * d;
  }

  auto monomial_expr = [](const Monomial& m) -> ExprPtr {
    ExprPtr out;
    for (const auto& [a, p] : m.factors()) {
      for (int k = 0; k < p; ++k) {
        ExprPtr factor = AtomTable::current().expr(a).clone();
        out = out ? ib::mul(std::move(out), std::move(factor))
                  : std::move(factor);
      }
    }
    return out;  // null for the unit monomial
  };

  ExprPtr sum;
  // Emit higher-degree terms first for readability (terms_ is sorted in
  // monomial order; collect and reverse by degree, stable).
  std::vector<std::pair<const Monomial*, Rational>> ordered;
  for (const auto& [m, c] : terms_) ordered.emplace_back(&m, c);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& x, const auto& y) {
                     if (x.first->degree() != y.first->degree())
                       return x.first->degree() > y.first->degree();
                     // Positive coefficients first to avoid a leading '-'.
                     return x.second.sign() > y.second.sign();
                   });

  for (const auto& [m, c] : ordered) {
    Rational scaled = c * Rational(den);
    p_assert(scaled.is_integer());
    std::int64_t k = scaled.as_integer();
    ExprPtr me = monomial_expr(*m);
    ExprPtr term;
    if (me == nullptr) {
      term = ib::ic(k < 0 ? -k : k);
    } else if (k == 1 || k == -1) {
      term = std::move(me);
    } else {
      term = ib::mul(ib::ic(k < 0 ? -k : k), std::move(me));
    }
    if (!sum) {
      sum = k < 0 ? ib::neg(std::move(term)) : std::move(term);
    } else if (k < 0) {
      sum = ib::sub(std::move(sum), std::move(term));
    } else {
      sum = ib::add(std::move(sum), std::move(term));
    }
  }
  if (den != 1) sum = ib::div(std::move(sum), ib::ic(den));
  return sum;
}

std::string Polynomial::to_string() const { return to_expr()->to_string(); }

}  // namespace polaris
