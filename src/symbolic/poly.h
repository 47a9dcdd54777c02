// Canonical multivariate polynomial form over expression "atoms".
//
// The symbolic analyses (range test, induction closed forms, expression
// comparison) all reduce expressions to a canonical sum-of-monomials with
// exact rational coefficients.  The paper's central example — the TRFD
// subscript (i*(n^2+n) + j^2 - j)/2 + k + 1 — needs rational coefficients
// so that forward differences like f(i,j+1,k) - f(i,j,k) = j come out
// exactly.
//
// Non-polynomial subexpressions (array references such as z(k), intrinsic
// calls, inexact divisions) are interned as opaque *atoms* and treated as
// indeterminates.  Two structurally equal subexpressions intern to the same
// atom, so cancellation works across them.
//
// Representation (hot path — every dependence query funnels through here):
// a Polynomial is a flat vector of (Monomial, Rational) terms sorted by
// monomial, and a Monomial keeps its (atom, power) factors in a small
// inline buffer that spills to the heap only beyond four factors.  Sums
// and differences are linear merges; products accumulate into a scratch
// vector normalized once.  The orderings are identical to the previous
// std::map representation, so canonical term order — and with it every
// printed artifact — is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/expr.h"
#include "support/rational.h"

namespace polaris {

using AtomId = int;

class Polynomial;

/// Interning table of atoms.  Atoms are immutable and the table only
/// grows.  A pass that fails leaves no atoms behind because the table
/// belongs to the unit shard the pass ran in, and a failed attempt
/// discards its shard whole (see driver/pass_manager.cpp).
///
/// Interning is hash-consed: the hash->id index is an unordered_multimap
/// (O(1) amortized lookup), and plain scalar VarRef atoms — the
/// overwhelmingly common case (loop indices, bounds symbols) —
/// additionally sit in a Symbol*->id map so intern_symbol() never builds
/// or hashes a temporary expression.
///
/// Ownership: there is no process-wide table.  Each compilation — and
/// each per-unit shard — owns an AtomTable and binds it to the working
/// thread with AtomTable::Scope; Polynomial construction reaches it via
/// AtomTable::current().  Atom ids are only canonical relative to one
/// table, and per-unit ids are deterministic regardless of worker count:
/// a unit's interning order depends only on that unit's own expressions.
/// A thread outside any Scope falls back to a thread-local table so
/// standalone symbolic code (and the symbolic tests) need no setup.
class AtomTable {
 public:
  AtomTable() = default;
  AtomTable(const AtomTable&) = delete;
  AtomTable& operator=(const AtomTable&) = delete;

  /// The table bound to the calling thread, or the thread's fallback
  /// table when no Scope is active.
  static AtomTable& current();

  /// RAII thread binding; nests, restoring the previous binding (pass
  /// null to rebind the fallback table).
  class Scope {
   public:
    explicit Scope(AtomTable* table);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    AtomTable* prev_;
  };

  /// Interns a structural copy of `e`; equal expressions share one id.
  AtomId intern(const Expression& e);
  /// Interns the VarRef atom of a scalar symbol (O(1) via the symbol map).
  AtomId intern_symbol(Symbol* s);

  const Expression& expr(AtomId id) const;
  /// The symbol if the atom is a plain VarRef, else null.
  Symbol* symbol(AtomId id) const;

 private:
  std::vector<ExprPtr> atoms_;
  std::unordered_multimap<std::size_t, AtomId> index_;
  std::unordered_map<const Symbol*, AtomId> symbol_ids_;  ///< VarRef fast path
};

/// Sorted (AtomId, power) factor list with a four-entry inline buffer.
/// Nearly every monomial the suite produces has <= 3 factors (the TRFD
/// subscript peaks at two), so products and comparisons run entirely out
/// of the inline storage; longer factor lists spill to a heap vector.
class FactorVec {
 public:
  using value_type = std::pair<AtomId, int>;

  FactorVec() = default;

  const value_type* begin() const { return data(); }
  const value_type* end() const { return data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const value_type& operator[](std::size_t i) const { return data()[i]; }

  void emplace_back(AtomId id, int power) {
    if (size_ < kInline) {
      inline_[size_] = value_type(id, power);
    } else {
      if (size_ == kInline)
        heap_.assign(inline_.begin(), inline_.end());
      heap_.emplace_back(id, power);
    }
    ++size_;
  }
  void push_back(const value_type& v) { emplace_back(v.first, v.second); }

  bool operator==(const FactorVec& o) const {
    if (size_ != o.size_) return false;
    const value_type* a = data();
    const value_type* b = o.data();
    for (std::size_t i = 0; i < size_; ++i)
      if (a[i] != b[i]) return false;
    return true;
  }
  bool operator<(const FactorVec& o) const {
    const value_type* a = data();
    const value_type* b = o.data();
    const std::size_t n = size_ < o.size_ ? size_ : o.size_;
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return size_ < o.size_;
  }

 private:
  static constexpr std::size_t kInline = 4;
  std::array<value_type, kInline> inline_{};
  std::vector<value_type> heap_;
  std::uint32_t size_ = 0;

  const value_type* data() const {
    return size_ <= kInline ? inline_.data() : heap_.data();
  }
};

/// A product of atom powers, e.g. n^2 * i.  Factors sorted by AtomId.
class Monomial {
 public:
  Monomial() = default;  // the empty product == 1
  static Monomial atom(AtomId id, int power = 1);

  const FactorVec& factors() const { return factors_; }
  bool is_unit() const { return factors_.empty(); }
  int degree() const;
  int degree_in(AtomId id) const;
  bool contains(AtomId id) const { return degree_in(id) > 0; }

  Monomial operator*(const Monomial& o) const;
  /// Divides out id^power; requires degree_in(id) >= power.
  Monomial without(AtomId id, int power) const;

  bool operator<(const Monomial& o) const { return factors_ < o.factors_; }
  bool operator==(const Monomial& o) const { return factors_ == o.factors_; }

 private:
  FactorVec factors_;
};

/// Canonical polynomial: flat list of (monomial, nonzero rational
/// coefficient) terms, sorted by monomial — the same order the previous
/// std::map representation iterated in, so term order in printed output
/// is unchanged.
class Polynomial {
 public:
  using Term = std::pair<Monomial, Rational>;
  using TermList = std::vector<Term>;

  Polynomial() = default;  // zero
  static Polynomial constant(const Rational& r);
  static Polynomial atom(AtomId id);
  static Polynomial symbol(Symbol* s);

  /// Canonicalizes an expression.  `exact_division` controls how integer
  /// division by a constant is treated: true (dependence-analysis mode, the
  /// Polaris assumption for compiler-generated subscripts) folds e/c into a
  /// rational scaling; false keeps e/c as an opaque atom (sound for
  /// arbitrary Fortran integer division, which truncates).
  static Polynomial from_expr(const Expression& e,
                              bool exact_division = true);

  bool is_zero() const { return terms_.empty(); }
  bool is_constant() const;
  /// Requires is_constant().
  Rational constant_value() const;

  const TermList& terms() const { return terms_; }
  Rational coefficient(const Monomial& m) const;
  int degree_in(AtomId id) const;
  bool contains(AtomId id) const { return degree_in(id) > 0; }
  /// All atoms appearing in any monomial.
  std::vector<AtomId> atoms() const;

  Polynomial operator-() const;
  Polynomial operator+(const Polynomial& o) const;
  Polynomial operator-(const Polynomial& o) const;
  Polynomial operator*(const Polynomial& o) const;
  Polynomial pow(int k) const;

  bool operator==(const Polynomial& o) const { return terms_ == o.terms_; }
  bool operator!=(const Polynomial& o) const { return !(*this == o); }

  /// Replaces atom `id` by `value` everywhere (expanding powers).
  Polynomial substitute(AtomId id, const Polynomial& value) const;

  /// Forward difference in atom `id`: f[id := id+1] - f.  The monotonicity
  /// workhorse of the range test (paper Section 3.3.1).  Where f is at
  /// most linear in `id` it is read off in closed form: the coefficient
  /// of `id`.
  Polynomial forward_difference(AtomId id) const;

  /// Exact symbolic summation over atom `id` from `lo` to `hi` (both
  /// polynomials in other atoms), using Faulhaber's formulas; requires
  /// degree_in(id) <= 6.  Assumes hi >= lo - 1 (empty sums allowed).
  /// This computes the induction-variable closed forms of Section 3.2.
  Polynomial sum_over(AtomId id, const Polynomial& lo,
                      const Polynomial& hi) const;

  /// Rebuilds an expression: (integer-coefficient sum) / common-denominator.
  ExprPtr to_expr() const;

  std::string to_string() const;

 private:
  void add_term(const Monomial& m, const Rational& c);
  /// Sorts `raw` by monomial, sums equal monomials, drops zeros, and
  /// installs the result (product/substitution accumulation path).
  static Polynomial normalized(TermList raw);
  TermList terms_;
};

/// Faulhaber polynomial S_k(n) = sum_{i=1}^{n} i^k, as a Polynomial in the
/// given atom; supported for 0 <= k <= 6.  Exposed for testing.
Polynomial faulhaber(int k, AtomId n);

}  // namespace polaris
