#include "symbolic/simplify.h"

#include <gtest/gtest.h>

#include "ir/build.h"
#include "parser/parser.h"

namespace polaris {
namespace {

class SimplifyTest : public ::testing::Test {
 protected:
  SymbolTable symtab;

  std::string S(const std::string& text) {
    ExprPtr e = parse_expression(text, symtab);
    return simplify(*e)->to_string();
  }
};

TEST_F(SimplifyTest, IntegerCanonicalization) {
  EXPECT_EQ(S("i + 0"), "i");
  EXPECT_EQ(S("i*1"), "i");
  EXPECT_EQ(S("i - i"), "0");
  EXPECT_EQ(S("2*i + 3*i"), "5*i");
  EXPECT_EQ(S("(i + 1)*(i - 1) - i*i"), "-1");
}

TEST_F(SimplifyTest, IntegerConstantFolding) {
  EXPECT_EQ(S("2 + 3*4"), "14");
  EXPECT_EQ(S("7/2"), "3");   // Fortran truncation
  EXPECT_EQ(S("(-7)/2"), "-3");
}

TEST_F(SimplifyTest, IntegerDivisionNotReassociated) {
  // i/2*2 must NOT simplify to i (truncating division).
  std::string s = S("(i/2)*2");
  EXPECT_NE(s, "i");
}

TEST_F(SimplifyTest, FloatIdentities) {
  EXPECT_EQ(S("x + 0.0"), "x");
  EXPECT_EQ(S("x*1.0"), "x");
  EXPECT_EQ(S("1.0*x"), "x");
  EXPECT_EQ(S("x/1.0"), "x");
}

TEST_F(SimplifyTest, FloatIdentityKeepsDoubleType) {
  // Mixed precision: x is REAL (implicit typing) but 0.0d0 makes the
  // operation DOUBLE PRECISION, so returning the bare operand would
  // silently demote the subtree.  The identity must not fire.
  EXPECT_NE(S("x - 0.0d0"), "x");
  EXPECT_NE(S("x*1.0d0"), "x");
  EXPECT_NE(S("1.0d0*x"), "x");
  EXPECT_NE(S("x/1.0d0"), "x");
  // Matching precision folds as before.
  symtab.declare("d", Type::double_precision(), SymbolKind::Variable);
  EXPECT_EQ(S("d - 0.0d0"), "d");
  EXPECT_EQ(S("d*1.0d0"), "d");
  EXPECT_EQ(S("1.0d0*d"), "d");
  EXPECT_EQ(S("d/1.0d0"), "d");
  // Integer operands stay foldable under a floating operation: the value
  // is exact and the surrounding context converts it either way.
  EXPECT_EQ(S("i*1.0"), "i");
  EXPECT_EQ(S("i + 0.0d0"), "i");
}

TEST_F(SimplifyTest, FloatConstantFolding) {
  EXPECT_EQ(S("1.5 + 2.5"), "4.0");
  EXPECT_EQ(S("3.0*2.0"), "6.0");
}

TEST_F(SimplifyTest, FloatNotReassociated) {
  // x + y - y is not simplified for floats (rounding).
  std::string s = S("x + y - y");
  EXPECT_NE(s, "x");
}

TEST_F(SimplifyTest, LogicalFolding) {
  EXPECT_EQ(S(".true. .and. .false."), ".false.");
  EXPECT_EQ(S(".true. .or. .false."), ".true.");
  EXPECT_EQ(S(".not. .true."), ".false.");
}

TEST_F(SimplifyTest, LogicalIdentity) {
  // .true. .and. p -> p
  std::string s = S(".true. .and. i .lt. j");
  EXPECT_EQ(s, "i.lt.j");
}

TEST_F(SimplifyTest, ComparisonFolding) {
  EXPECT_EQ(S("1 .lt. 2"), ".true.");
  EXPECT_EQ(S("i .lt. i"), ".false.");
  EXPECT_EQ(S("i + 1 .gt. i"), ".true.");
  EXPECT_EQ(S("i .le. j"), "i.le.j");  // not provable structurally
}

TEST_F(SimplifyTest, NegationFolding) {
  EXPECT_EQ(S("-(3)"), "-3");
  EXPECT_EQ(S("-(1.5)"), "(-1.5)");
  EXPECT_EQ(S("i + (-1)*j"), "i-j");
}

TEST_F(SimplifyTest, TryFoldInt) {
  std::int64_t v = 0;
  ExprPtr e = parse_expression("3*4 + 5", symtab);
  EXPECT_TRUE(try_fold_int(*e, &v));
  EXPECT_EQ(v, 17);
  ExprPtr f = parse_expression("i + 1", symtab);
  EXPECT_FALSE(try_fold_int(*f, &v));
}

TEST_F(SimplifyTest, TryFoldIntConstantsAndNonConstants) {
  std::int64_t v = 0;
  EXPECT_TRUE(try_fold_int(*ib::ic(42), &v));  // answered without a polynomial
  EXPECT_EQ(v, 42);
  ExprPtr neg = parse_expression("-3", symtab);
  EXPECT_TRUE(try_fold_int(*neg, &v));
  EXPECT_EQ(v, -3);
  Symbol* c = symtab.declare("cparam", Type::integer(), SymbolKind::Parameter);
  c->set_param_value(ib::ic(12));
  EXPECT_TRUE(try_fold_int(*ib::var(c), &v));
  EXPECT_EQ(v, 12);
  v = 5;
  ExprPtr x = parse_expression("m + 1", symtab);
  EXPECT_FALSE(try_fold_int(*x, &v));
  EXPECT_EQ(v, 5);  // left as it was
}

TEST_F(SimplifyTest, SimplifyInsideCalls) {
  EXPECT_EQ(S("max(i + 0, j*1)"), "max(i,j)");
}

TEST_F(SimplifyTest, SimplifyInPlace) {
  ExprPtr e = parse_expression("i + 0", symtab);
  simplify_in_place(e);
  EXPECT_EQ(e->to_string(), "i");
}

}  // namespace
}  // namespace polaris
