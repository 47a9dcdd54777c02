// Figure 1 reproduction: substitution of cascaded inductions in a
// triangular loop nest.  Prints the code before and after the pass (the
// paper shows exactly this before/after pair), verifies the closed form
// numerically against the recurrence, and reports whether the transformed
// nest parallelizes.
#include <cstdio>

#include "harness.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "passes/induction.h"
#include "symbolic/poly.h"

int main() {
  using namespace polaris;
  bench::heading("Figure 1: Substitution of cascaded inductions");

  const char* src =
      "      program fig1\n"
      "      parameter (n = 30)\n"
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
      "      end\n";

  auto prog = parse_program(src);
  std::printf("--- before ---\n%s\n", to_source(*prog->main()).c_str());

  Diagnostics diags;
  Options opts = Options::polaris();
  AnalysisManager am;
  InductionResult r = substitute_inductions(*prog->main(), opts, diags, am);
  std::printf("--- after (%d inductions substituted) ---\n%s\n",
              r.substituted, to_source(*prog->main()).c_str());

  // Numeric verification of the closed form against the recurrence.
  DoStmt* inner = prog->main()->stmts().loops()[1];
  auto* store = static_cast<AssignStmt*>(inner->next());
  Polynomial sub = Polynomial::from_expr(
      *static_cast<const ArrayRef&>(store->lhs()).subscripts()[0]);
  auto atom = [&](const char* name) {
    return AtomTable::current().intern_symbol(
        prog->main()->symtab().lookup(name));
  };
  long long k1 = 0, k2 = 0;
  long long checked = 0, correct = 0;
  for (long long i = 1; i <= 30; ++i) {
    k1 += 1;
    for (long long j = 1; j <= i; ++j) {
      k2 += k1;
      Polynomial v =
          sub.substitute(atom("i"), Polynomial::constant(Rational(i)))
              .substitute(atom("j"), Polynomial::constant(Rational(j)))
              .substitute(atom("k1"), Polynomial::constant(Rational(0)))
              .substitute(atom("k2"), Polynomial::constant(Rational(0)));
      ++checked;
      if (v.is_constant() && v.constant_value() == Rational(k2)) ++correct;
    }
  }
  std::printf("closed-form check: %lld/%lld subscript values match the "
              "recurrence\n\n",
              correct, checked);
  return correct == checked ? 0 : 1;
}
