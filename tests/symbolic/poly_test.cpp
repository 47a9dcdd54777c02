#include "symbolic/poly.h"

#include <gtest/gtest.h>

#include "ir/build.h"
#include "parser/parser.h"

namespace polaris {
namespace {

class PolyTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* j = symtab.declare("j", Type::integer(), SymbolKind::Variable);
  Symbol* k = symtab.declare("k", Type::integer(), SymbolKind::Variable);
  Symbol* n = symtab.declare("n", Type::integer(), SymbolKind::Variable);
  AtomId ai = AtomTable::current().intern_symbol(i);
  AtomId aj = AtomTable::current().intern_symbol(j);
  AtomId ak = AtomTable::current().intern_symbol(k);
  AtomId an = AtomTable::current().intern_symbol(n);

  Polynomial P(const std::string& text) {
    ExprPtr e = parse_expression(text, symtab);
    return Polynomial::from_expr(*e);
  }
};

TEST_F(PolyTest, InterningSharesEqualAtoms) {
  ExprPtr e1 = ib::var(n);
  ExprPtr e2 = ib::var(n);
  EXPECT_EQ(AtomTable::current().intern(*e1),
            AtomTable::current().intern(*e2));
  EXPECT_EQ(AtomTable::current().symbol(an), n);
}

TEST_F(PolyTest, CanonicalizationCancels) {
  EXPECT_TRUE((P("i + j") - P("j + i")).is_zero());
  EXPECT_TRUE((P("(i+1)*(i-1)") - P("i*i - 1")).is_zero());
  EXPECT_TRUE((P("2*(i+j)") - P("2*i") - P("2*j")).is_zero());
}

TEST_F(PolyTest, PowExpansion) {
  EXPECT_TRUE((P("(i+1)**2") - P("i*i + 2*i + 1")).is_zero());
  EXPECT_TRUE((P("i**3") - P("i*i*i")).is_zero());
}

TEST_F(PolyTest, ConstantsAndParameters) {
  Symbol* c = symtab.declare("cparam", Type::integer(),
                             SymbolKind::Parameter);
  c->set_param_value(ib::ic(10));
  ExprPtr e = ib::mul(ib::var(c), ib::var(i));
  Polynomial p = Polynomial::from_expr(*e);
  EXPECT_EQ(p.coefficient(Monomial::atom(ai)), Rational(10));
}

TEST_F(PolyTest, DegreeQueries) {
  Polynomial p = P("i*i*n + j - 3");
  EXPECT_EQ(p.degree_in(ai), 2);
  EXPECT_EQ(p.degree_in(an), 1);
  EXPECT_EQ(p.degree_in(aj), 1);
  EXPECT_EQ(p.degree_in(ak), 0);
  EXPECT_TRUE(p.contains(an));
  EXPECT_FALSE(p.contains(ak));
}

TEST_F(PolyTest, OpaqueAtomsForNonPolynomialParts) {
  // mod(i,2) is opaque, but two occurrences cancel.
  Polynomial p = P("mod(i,2) + j - mod(i,2)");
  EXPECT_TRUE((p - P("j")).is_zero());
}

TEST_F(PolyTest, ExactDivisionMode) {
  // Dependence-analysis mode treats /2 as rational scaling.
  Polynomial p = P("(j*j - j)/2");
  EXPECT_EQ(p.coefficient(Monomial::atom(aj, 2)), Rational(1, 2));
}

TEST_F(PolyTest, TruncatingDivisionModeKeepsOpaque) {
  ExprPtr e = parse_expression("(j*j - j)/2", symtab);
  Polynomial p = Polynomial::from_expr(*e, /*exact_division=*/false);
  // The division is opaque: p is a single atom, not a degree-2 polynomial.
  EXPECT_EQ(p.degree_in(aj), 0);
  EXPECT_FALSE(p.is_constant());
}

TEST_F(PolyTest, TruncatingConstantDivision) {
  ExprPtr e = parse_expression("7/2", symtab);
  Polynomial p = Polynomial::from_expr(*e, /*exact_division=*/false);
  ASSERT_TRUE(p.is_constant());
  EXPECT_EQ(p.constant_value(), Rational(3));  // Fortran truncation
}

TEST_F(PolyTest, SubstituteExpandsPowers) {
  // (i)^2 with i := j+1 -> j^2 + 2j + 1
  Polynomial p = P("i*i").substitute(ai, P("j + 1"));
  EXPECT_TRUE((p - P("j*j + 2*j + 1")).is_zero());
}

TEST_F(PolyTest, ForwardDifferenceTrfdInnermost) {
  // Paper Section 3.3.1: f = (i*(n^2+n) + j^2 - j)/2 + k + 1.
  Polynomial f = P("(i*(n**2 + n) + j**2 - j)/2 + k + 1");
  // d/dk: f(k+1) - f(k) = 1.
  Polynomial dk = f.forward_difference(ak);
  ASSERT_TRUE(dk.is_constant());
  EXPECT_EQ(dk.constant_value(), Rational(1));
}

TEST_F(PolyTest, ForwardDifferenceTrfdMiddle) {
  // After eliminating k at its max (k = j-1):
  //   a1(i,j) = (i*(n^2+n) + j^2 - j)/2 + j
  // and a1(i,j+1) - a1(i,j) = j + 1 (paper's computation).
  Polynomial a1 = P("(i*(n**2 + n) + j**2 - j)/2 + j");
  Polynomial dj = a1.forward_difference(aj);
  EXPECT_TRUE((dj - P("j + 1")).is_zero());

  // And for the minimum b1(i,j) = (i*(n^2+n) + j^2 - j)/2 + 1 the forward
  // difference is j (monotonically non-decreasing since j >= 0).
  Polynomial b1 = P("(i*(n**2 + n) + j**2 - j)/2 + 1");
  EXPECT_TRUE((b1.forward_difference(aj) - P("j")).is_zero());
}

// The closed form that answers a linear atom must agree term for term
// with the general substitute-and-subtract path it replaces.
TEST_F(PolyTest, ForwardDifferenceLinearMatchesShiftAndSubtract) {
  const Polynomial one = Polynomial::constant(Rational(1));
  auto shifted_minus = [&](const Polynomial& f, AtomId a) {
    return f.substitute(a, Polynomial::atom(a) + one) - f;
  };
  const char* cases[] = {
      "n*i + 2*i*j + k",                    // composite monomials around i
      "i/3 + 2*n*i/5 - 7/2",                // rational coefficients
      "mod(i, 2) + 3*i*n - mod(i + n, 3)",  // opaque atoms naming i
      "j*k + n",                            // no i: difference zero
  };
  for (const char* text : cases) {
    Polynomial f = P(text);
    ASSERT_LE(f.degree_in(ai), 1) << text;
    EXPECT_EQ(f.forward_difference(ai), shifted_minus(f, ai)) << text;
  }
  EXPECT_EQ(P("n*i + 2*i*j + k").forward_difference(ai), P("n + 2*j"));
  EXPECT_EQ(P("i/3 + 2*n*i/5 - 7/2").forward_difference(ai),
            P("1/3 + 2*n/5"));
  EXPECT_TRUE(P("j*k + n").forward_difference(ai).is_zero());
  // Quadratic atoms keep the general path.
  Polynomial q = P("i*i*n + i");
  EXPECT_EQ(q.forward_difference(ai), shifted_minus(q, ai));
  EXPECT_EQ(q.forward_difference(ai), P("2*i*n + n + 1"));
}

TEST_F(PolyTest, PowZeroAndOne) {
  Polynomial f = P("n*i + 2*j - 3");
  EXPECT_EQ(f.pow(0), Polynomial::constant(Rational(1)));
  EXPECT_EQ(f.pow(1), f);
  EXPECT_EQ(f.pow(2), f * f);
  EXPECT_EQ(Polynomial().pow(0), Polynomial::constant(Rational(1)));
  EXPECT_TRUE(Polynomial().pow(1).is_zero());
}

TEST_F(PolyTest, FaulhaberIdentities) {
  // S_k(m) - S_k(m-1) == m^k must hold identically for every k.
  AtomId m = AtomTable::current().intern_symbol(
      symtab.declare("mfaul", Type::integer(), SymbolKind::Variable));
  for (int kdeg = 0; kdeg <= 6; ++kdeg) {
    Polynomial sk = faulhaber(kdeg, m);
    Polynomial diff = sk - sk.substitute(m, Polynomial::atom(m) -
                                                Polynomial::constant(1));
    Polynomial expect = Polynomial::atom(m).pow(kdeg);
    EXPECT_TRUE((diff - expect).is_zero()) << "k = " << kdeg;
  }
}

TEST_F(PolyTest, FaulhaberNumeric) {
  AtomId m = AtomTable::current().intern_symbol(
      symtab.declare("mnum", Type::integer(), SymbolKind::Variable));
  // S_2(5) = 1+4+9+16+25 = 55, S_3(4) = 100, S_6(3) = 1 + 64 + 729 = 794.
  auto eval = [&](int kdeg, std::int64_t v) {
    Polynomial p =
        faulhaber(kdeg, m).substitute(m, Polynomial::constant(Rational(v)));
    p_assert(p.is_constant());
    return p.constant_value();
  };
  EXPECT_EQ(eval(2, 5), Rational(55));
  EXPECT_EQ(eval(3, 4), Rational(100));
  EXPECT_EQ(eval(6, 3), Rational(794));
}

TEST_F(PolyTest, SumOverConstantRange) {
  // sum_{i=1}^{10} i = 55; sum_{i=0}^{j-1} 1 = j.
  Polynomial s1 = P("i").sum_over(ai, P("1"), P("10"));
  ASSERT_TRUE(s1.is_constant());
  EXPECT_EQ(s1.constant_value(), Rational(55));

  Polynomial s2 = P("1").sum_over(ai, P("0"), P("j - 1"));
  EXPECT_TRUE((s2 - P("j")).is_zero());
}

TEST_F(PolyTest, SumOverTriangular) {
  // sum_{k=0}^{j-1} 1 = j, then sum_{j=0}^{n-1} j = (n^2-n)/2 — the closed
  // form of the paper's Figure 1/2 cascaded induction.
  Polynomial inner = P("1").sum_over(ak, P("0"), P("j - 1"));
  Polynomial outer = inner.sum_over(aj, P("0"), P("n - 1"));
  EXPECT_TRUE((outer - P("(n*n - n)/2")).is_zero());
}

TEST_F(PolyTest, SumOverEmptyRangeIsZero) {
  Polynomial s = P("i").sum_over(ai, P("1"), P("0"));
  ASSERT_TRUE(s.is_constant());
  EXPECT_EQ(s.constant_value(), Rational(0));
}

TEST_F(PolyTest, ToExprCommonDenominator) {
  Polynomial p = P("(j**2 - j)/2");
  ExprPtr e = p.to_expr();
  EXPECT_EQ(e->to_string(), "(j*j-j)/2");
}

TEST_F(PolyTest, ToExprRoundTrip) {
  for (const char* text :
       {"i + 2*j - 3", "i*i*n - j/2 + 1", "n**2 + n", "0", "-i + 4"}) {
    Polynomial p = P(text);
    ExprPtr back = p.to_expr();
    Polynomial again = Polynomial::from_expr(*back);
    EXPECT_TRUE((p - again).is_zero()) << text;
  }
}

TEST_F(PolyTest, AtomsListsAllIndeterminates) {
  Polynomial p = P("i*n + j");
  auto atoms = p.atoms();
  EXPECT_EQ(atoms.size(), 3u);
}

}  // namespace
}  // namespace polaris
