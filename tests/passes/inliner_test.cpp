// Inline expansion tests (paper Section 3.1): formal/actual remapping,
// local renaming, common unification, linearization, label isolation,
// RETURN handling — each verified for structure and for semantics (the
// inlined program prints what the original prints).
#include "passes/inliner.h"

#include <gtest/gtest.h>

#include "interp/interp.h"
#include "parser/parser.h"
#include "parser/printer.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  Diagnostics diags;
  Options opts = Options::polaris();
  std::vector<std::string> reference_output;

  explicit Fix(const std::string& src) : prog(parse_program(src)) {
    auto ref = parse_program(src);
    try {
      reference_output = run_program(*ref, MachineConfig{}).output;
    } catch (const UserError&) {
      // Deliberately malformed programs (e.g. argument-count mismatch)
      // have no reference execution; equivalence is not checked for them.
    }
  }
  InlineResult run() { return inline_calls(*prog, opts, diags); }
  void expect_equivalent() {
    auto r = run_program(*prog, MachineConfig{});
    EXPECT_EQ(r.output, reference_output);
  }
  int call_count() {
    int n = 0;
    for (Statement* s : prog->main()->stmts())
      if (s->kind() == StmtKind::Call) ++n;
    return n;
  }
};

TEST(InlinerTest, ScalarByReference) {
  Fix f(
      "      program t\n"
      "      x = 1.0\n"
      "      call bump(x)\n"
      "      call bump(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine bump(a)\n"
      "      a = a + 1.0\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 2);
  EXPECT_EQ(f.call_count(), 0);
  f.expect_equivalent();
}

TEST(InlinerTest, WholeArrayActual) {
  Fix f(
      "      program t\n"
      "      real v(10)\n"
      "      call fill(v, 10)\n"
      "      print *, v(1), v(10)\n"
      "      end\n"
      "      subroutine fill(a, n)\n"
      "      real a(n)\n"
      "      do i = 1, n\n"
      "        a(i) = i*2.0\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 1);
  f.expect_equivalent();
  // The callee's local i was renamed into the caller.
  EXPECT_NE(f.prog->main()->symtab().lookup("fill_i"), nullptr);
}

TEST(InlinerTest, ExpressionActualGetsTemp) {
  Fix f(
      "      program t\n"
      "      y = 3.0\n"
      "      call show(y*2.0 + 1.0)\n"
      "      end\n"
      "      subroutine show(a)\n"
      "      print *, a\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 1);
  f.expect_equivalent();
}

TEST(InlinerTest, LinearizationOfNonconformingArray) {
  // 2-D formal mapped onto a 1-D actual: subscripts linearized with the
  // formal's shape (paper: "a formal array must be mapped into an
  // equivalent, linearized version of the actual array").
  Fix f(
      "      program t\n"
      "      real buf(12)\n"
      "      call grid(buf, 3, 4)\n"
      "      print *, buf(1), buf(5), buf(12)\n"
      "      end\n"
      "      subroutine grid(g, nr, nc)\n"
      "      real g(nr, nc)\n"
      "      do j = 1, nc\n"
      "        do i = 1, nr\n"
      "          g(i, j) = i*10.0 + j\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 1);
  f.expect_equivalent();
  std::string src = to_source(*f.prog->main());
  EXPECT_EQ(src.find("g("), std::string::npos);  // formal gone
}

TEST(InlinerTest, CommonBlocksUnifyByName) {
  Fix f(
      "      program t\n"
      "      common /st/ total\n"
      "      total = 1.0\n"
      "      call add2\n"
      "      print *, total\n"
      "      end\n"
      "      subroutine add2\n"
      "      common /st/ total\n"
      "      total = total + 2.0\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 1);
  f.expect_equivalent();
}

TEST(InlinerTest, ReturnBecomesBranchToEnd) {
  Fix f(
      "      program t\n"
      "      x = -1.0\n"
      "      call clamp(x)\n"
      "      y = 2.0\n"
      "      call clamp(y)\n"
      "      print *, x, y\n"
      "      end\n"
      "      subroutine clamp(a)\n"
      "      if (a .lt. 0.0) then\n"
      "        a = 0.0\n"
      "        return\n"
      "      end if\n"
      "      a = a*2.0\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 2);
  f.expect_equivalent();
}

TEST(InlinerTest, NestedCallsExpandTransitively) {
  Fix f(
      "      program t\n"
      "      x = 1.0\n"
      "      call outer(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine outer(a)\n"
      "      a = a + 1.0\n"
      "      call inner(a)\n"
      "      end\n"
      "      subroutine inner(b)\n"
      "      b = b*3.0\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 2);  // outer, then the exposed inner call
  EXPECT_EQ(f.call_count(), 0);
  f.expect_equivalent();
}

TEST(InlinerTest, LabelsIsolated) {
  Fix f(
      "      program t\n"
      "      goto 10\n"
      "   10 continue\n"
      "      call spin(k)\n"
      "      print *, k\n"
      "      end\n"
      "      subroutine spin(n)\n"
      "      n = 0\n"
      "   10 n = n + 1\n"
      "      if (n .lt. 5) goto 10\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 1);
  f.expect_equivalent();
}

TEST(InlinerTest, DisabledInBaseline) {
  Fix f(
      "      program t\n"
      "      call sub(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine sub(a)\n"
      "      a = 5.0\n"
      "      end\n");
  f.opts = Options::baseline();
  auto r = f.run();
  EXPECT_EQ(r.expanded, 0);
  EXPECT_EQ(f.call_count(), 1);
}

TEST(InlinerTest, ArgumentMismatchSkippedWithDiagnostic) {
  Fix f(
      "      program t\n"
      "      call sub(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine sub(a, b)\n"
      "      a = b\n"
      "      end\n");
  auto r = f.run();
  EXPECT_EQ(r.expanded, 0);
  EXPECT_EQ(r.skipped, 1);
  EXPECT_TRUE(f.diags.contains("argument count mismatch"));
}

TEST(InlinerTest, InliningEnablesLoopParallelization) {
  // The paper's whole point: interprocedural analysis through expansion.
  Fix f(
      "      program t\n"
      "      real a(800)\n"
      "      do i = 1, 8\n"
      "        call slice(a, i)\n"
      "      end do\n"
      "      print *, a(1), a(800)\n"
      "      end\n"
      "      subroutine slice(a, i)\n"
      "      real a(800)\n"
      "      do j = 1, 100\n"
      "        a((i - 1)*100 + j) = i + j*0.5\n"
      "      end do\n"
      "      end\n");
  f.run();
  f.expect_equivalent();
  std::string src = to_source(*f.prog->main());
  EXPECT_EQ(src.find("call"), std::string::npos);
}

}  // namespace
}  // namespace polaris
