// Induction variable substitution tests, including the paper's Figure 1
// (cascaded inductions in a triangular nest) and Figure 2 (TRFD OLDA).
#include "passes/induction.h"

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "symbolic/poly.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  ProgramUnit* unit;
  Diagnostics diags;
  Options opts = Options::polaris();

  explicit Fix(const std::string& src) : prog(parse_program(src)) {
    unit = prog->main();
  }
  InductionResult run() {
    AnalysisManager am;
    return substitute_inductions(*unit, opts, diags, am);
  }
  std::string source() { return to_source(*unit); }
  int count_assigns_to(const std::string& name) {
    int n = 0;
    Symbol* s = unit->symtab().lookup(name);
    for (Statement* st : unit->stmts()) {
      if (st->kind() == StmtKind::Assign &&
          static_cast<AssignStmt*>(st)->target() == s &&
          static_cast<AssignStmt*>(st)->lhs().kind() == ExprKind::VarRef)
        ++n;
    }
    return n;
  }
};

TEST(InductionTest, SimpleCounter) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      k = 0\n"
      "      do i = 1, n\n"
      "        k = k + 1\n"
      "        a(k) = 1.0\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 1);
  // The recurrence statement is gone; the use is closed-form.
  std::string src = f.source();
  EXPECT_EQ(src.find("k = k+1"), std::string::npos);
  EXPECT_NE(src.find("a(k+i)"), std::string::npos);
}

TEST(InductionTest, LastValueWhenLiveOut) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      k = 0\n"
      "      do i = 1, 10\n"
      "        k = k + 2\n"
      "        a(k) = 1.0\n"
      "      end do\n"
      "      m = k\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 1);
  std::string src = f.source();
  // A last-value assignment k = k + 20 appears after the loop.
  EXPECT_NE(src.find("k = k+20"), std::string::npos);
}

TEST(InductionTest, NoLastValueWhenDead) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      k = 0\n"
      "      do i = 1, 10\n"
      "        k = k + 1\n"
      "        a(k) = 1.0\n"
      "      end do\n"
      "      k = 0\n"
      "      end\n");
  f.run();
  // Exactly the two original scalar assignments remain (init + kill).
  EXPECT_EQ(f.count_assigns_to("k"), 2);
}

TEST(InductionTest, TriangularCascadedFigure1) {
  // The paper's Figure 1: K1 incremented per outer iteration, K2 cascaded
  // on K1 inside a triangular inner loop.
  Fix f(
      "      program fig1\n"
      "      real a(10000)\n"
      "      integer k1, k2\n"
      "      k1 = 0\n"
      "      k2 = 0\n"
      "      do i = 1, n\n"
      "        k1 = k1 + 1\n"
      "        do j = 1, i\n"
      "          k2 = k2 + k1\n"
      "          a(k2) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 2);
  std::string src = f.source();
  EXPECT_EQ(src.find("k2 = k2"), std::string::npos);
  EXPECT_EQ(src.find("k1 = k1"), std::string::npos);

  // Verify the closed form numerically against the recurrence.
  DoStmt* inner = f.unit->stmts().loops()[1];
  Statement* store = inner->next();
  ASSERT_EQ(store->kind(), StmtKind::Assign);
  const auto& lhs = static_cast<const AssignStmt*>(store)->lhs();
  ASSERT_EQ(lhs.kind(), ExprKind::ArrayRef);
  Polynomial sub = Polynomial::from_expr(
      *static_cast<const ArrayRef&>(lhs).subscripts()[0]);
  auto atom = [&](const char* name) {
    return AtomTable::current().intern_symbol(
        f.unit->symtab().lookup(name));
  };
  std::int64_t k1 = 0, k2 = 0;
  for (std::int64_t i = 1; i <= 8; ++i) {
    k1 += 1;
    for (std::int64_t j = 1; j <= i; ++j) {
      k2 += k1;
      Polynomial v =
          sub.substitute(atom("i"), Polynomial::constant(Rational(i)))
              .substitute(atom("j"), Polynomial::constant(Rational(j)))
              .substitute(atom("k1"), Polynomial::constant(Rational(0)))
              .substitute(atom("k2"), Polynomial::constant(Rational(0)));
      ASSERT_TRUE(v.is_constant());
      EXPECT_EQ(v.constant_value(), Rational(k2)) << "i=" << i << " j=" << j;
    }
  }
}

TEST(InductionTest, TrfdFigure2ClosedForm) {
  // Figure 2: X = X + 1 inside the triangular (j,k) nest plus the outer
  // accumulator X0; after substitution the subscript is the paper's
  // (i*(n^2+n) + j^2 - j)/2 + k + 1 form (with our loops 0-based).
  Fix f(
      "      program trfd\n"
      "      real a(100000)\n"
      "      integer x, x0\n"
      "      x0 = 0\n"
      "      do i = 0, m - 1\n"
      "        x = x0\n"
      "        do j = 0, n - 1\n"
      "          do k = 0, j - 1\n"
      "            x = x + 1\n"
      "            a(x) = 1.0\n"
      "          end do\n"
      "        end do\n"
      "        x0 = x0 + (n**2 + n)/2\n"
      "      end do\n"
      "      end\n");
  // x is not a pure induction (x = x0 reassigns it); but x0 is.  Polaris
  // handles this by substituting x0 first; x then becomes an induction in
  // a second round after copy propagation.  Our pass handles the combined
  // form when x0 is substituted and x's reassignment blocks it — verify
  // x0 substitution at least fires.
  auto r = f.run();
  EXPECT_GE(r.substituted, 1);
  std::string src = f.source();
  EXPECT_EQ(src.find("x0 = x0"), std::string::npos);
}

TEST(InductionTest, ConditionalIncrementRejected) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      k = 0\n"
      "      do i = 1, n\n"
      "        if (i .gt. 5) then\n"
      "          k = k + 1\n"
      "        end if\n"
      "        a(i) = k\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 0);
  EXPECT_EQ(r.rejected, 1);
  EXPECT_TRUE(f.diags.contains("conditional increment"));
}

TEST(InductionTest, NonInvariantIncrementRejected) {
  // m is a geometric induction (rewritten via a counter); k's increment
  // then hides the counter inside an exponential atom, which the
  // polynomial summation cannot handle — k must stay a recurrence.
  Fix f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      k = 0\n"
      "      do i = 1, n\n"
      "        k = k + m\n"
      "        m = m*2\n"
      "        a(i) = k\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 2);  // m's rewrite + its counter
  EXPECT_TRUE(f.diags.contains("not invariant"));
  // k must remain a self-recurrence inside the loop.
  Symbol* k = f.unit->symtab().lookup("k");
  bool recurrence = false;
  for (Statement* s : f.unit->stmts()) {
    if (s->kind() != StmtKind::Assign || s->outer() == nullptr) continue;
    auto* a = static_cast<AssignStmt*>(s);
    if (a->lhs().kind() == ExprKind::VarRef && a->target() == k &&
        a->rhs().references(k))
      recurrence = true;
  }
  EXPECT_TRUE(recurrence) << "k must remain a recurrence:\n" << f.source();
}

TEST(InductionTest, TrulyNonInvariantIncrementRejected) {
  // m is modified by a non-induction assignment: k cannot be summed.
  Fix f(
      "      program t\n"
      "      real a(100), b(100)\n"
      "      k = 0\n"
      "      do i = 1, n\n"
      "        k = k + m\n"
      "        m = b(i)*2.0\n"
      "        a(i) = k\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 0);
  EXPECT_TRUE(f.diags.contains("not invariant"));
}

TEST(InductionTest, MixedDefsRejected) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        k = k + 1\n"
      "        k = i*2\n"
      "        a(i) = k\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.substituted, 0);
}

TEST(InductionTest, CascadedDisabledInBaseline) {
  Fix f(
      "      program t\n"
      "      real a(10000)\n"
      "      integer k1, k2\n"
      "      k1 = 0\n"
      "      k2 = 0\n"
      "      do i = 1, n\n"
      "        k1 = k1 + 1\n"
      "        k2 = k2 + k1\n"
      "        a(k2) = 1.0\n"
      "      end do\n"
      "      end\n");
  f.opts = Options::baseline();
  auto r = f.run();
  // k2 cascades on k1: rejected in baseline mode; k1 alone is simple...
  // but k1 is referenced by k2's (still present) increment, so k1 must
  // stay as well for correctness — the pass substitutes only safe sets.
  EXPECT_TRUE(f.diags.contains("cascaded induction disabled"));
  (void)r;
}

TEST(InductionTest, SemanticsPreservedNumerically) {
  // Compare closed forms against a reference recurrence execution.
  Fix f(
      "      program t\n"
      "      real a(1000)\n"
      "      k = 0\n"
      "      do i = 1, 10\n"
      "        do j = 1, i\n"
      "          k = k + 1\n"
      "          a(k) = 1.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  ASSERT_EQ(r.substituted, 1);
  // Closed form at (i, j): k = j + (i-1)i/2; check textually via print
  // and numerically by evaluating the polynomial for sampled (i, j).
  DoStmt* inner = f.unit->stmts().loops()[1];
  Statement* store = inner->next();
  ASSERT_EQ(store->kind(), StmtKind::Assign);
  const auto& lhs = static_cast<const AssignStmt*>(store)->lhs();
  ASSERT_EQ(lhs.kind(), ExprKind::ArrayRef);
  Polynomial sub = Polynomial::from_expr(
      *static_cast<const ArrayRef&>(lhs).subscripts()[0]);
  AtomId ai = AtomTable::current().intern_symbol(
      f.unit->symtab().lookup("i"));
  AtomId aj = AtomTable::current().intern_symbol(
      f.unit->symtab().lookup("j"));
  AtomId ak = AtomTable::current().intern_symbol(
      f.unit->symtab().lookup("k"));
  std::int64_t expect = 0;
  for (std::int64_t i = 1; i <= 10; ++i) {
    for (std::int64_t j = 1; j <= i; ++j) {
      ++expect;
      Polynomial v = sub.substitute(ai, Polynomial::constant(Rational(i)))
                         .substitute(aj, Polynomial::constant(Rational(j)))
                         .substitute(ak, Polynomial::constant(Rational(0)));
      ASSERT_TRUE(v.is_constant());
      EXPECT_EQ(v.constant_value(), Rational(expect))
          << "i=" << i << " j=" << j;
    }
  }
}

// A GOTO, RETURN or STOP that leaves, skips or re-enters part of a nest
// makes every closed form wrong: the pass must leave the recurrence in
// place.  Each compiled program must print what the sequential reference
// prints; the last one looped forever when its recurrence was replaced.
TEST(InductionTest, IrregularFlowKeepsTheRecurrence) {
  struct Case {
    const char* name;
    const char* src;
  };
  const Case cases[] = {
      {"goto out of a doall",
       "      program t\n"
       "      k = 0\n"
       "csrd$ doall\n"
       "      do i = 1, 10\n"
       "        k = k + 1\n"
       "        if (i .eq. 3) goto 20\n"
       "      end do\n"
       "      print *, 'none'\n"
       "   20 print *, i, k\n"
       "      end\n"},
      {"goto out of a do",
       "      program t\n"
       "      k = 0\n"
       "      do i = 1, 10\n"
       "        k = k + 1\n"
       "        if (i .eq. 3) goto 20\n"
       "      end do\n"
       "      print *, 'none'\n"
       "   20 print *, i, k\n"
       "      end\n"},
      {"return from a do",
       "      program t\n"
       "      k = 0\n"
       "      call s(k)\n"
       "      print *, k\n"
       "      end\n"
       "      subroutine s(k)\n"
       "      do i = 1, 10\n"
       "        k = k + 1\n"
       "        if (i .eq. 4) return\n"
       "      end do\n"
       "      end\n"},
      {"goto over the increment",
       "      program t\n"
       "      k = 0\n"
       "      do i = 1, 10\n"
       "        if (i .eq. 3) goto 5\n"
       "        k = k + 1\n"
       "    5   continue\n"
       "      end do\n"
       "      print *, k\n"
       "      end\n"},
      {"goto out of the inner do",
       "      program t\n"
       "      k = 0\n"
       "      do i = 1, 5\n"
       "        do j = 1, 10\n"
       "          k = k + 1\n"
       "          if (k .eq. 37) goto 20\n"
       "        end do\n"
       "      end do\n"
       "   20 print *, k, j\n"
       "      end\n"},
      {"multiplicative, goto out",
       "      program t\n"
       "      k = 1\n"
       "      do i = 1, 10\n"
       "        k = k * 2\n"
       "        if (i .eq. 3) goto 20\n"
       "      end do\n"
       "   20 print *, k\n"
       "      end\n"},
      {"goto back to the do",
       "      program t\n"
       "      n = 0\n"
       "   10 do i = 1, 3\n"
       "        n = n + 1\n"
       "        if (n .eq. 2) goto 10\n"
       "      end do\n"
       "      print *, n\n"
       "      end\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ref = parse_program(c.src);
    RunResult want = run_program(*ref, MachineConfig{.processors = 1});
    auto prog = Compiler(CompilerMode::Polaris).compile(c.src);
    Interpreter compiled(*prog, MachineConfig{.processors = 8});
    // Far above what any case executes: a loop that never ends fails fast.
    compiled.set_statement_limit(100000);
    try {
      EXPECT_EQ(compiled.run().output, want.output);
    } catch (const UserError& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

}  // namespace
}  // namespace polaris
