#include "analysis/structure.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

std::unique_ptr<Program> parse(const std::string& src) {
  return parse_program(src);
}

std::set<std::string> names(const SymbolSet& syms) {
  std::set<std::string> out;
  for (Symbol* s : syms) out.insert(s->name());
  return out;
}

TEST(StructureTest, MustDefinedStraightLine) {
  auto p = parse(
      "      program t\n"
      "      x = 1.0\n"
      "      y = x + 1.0\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto defs = must_defined_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(names(defs), (std::set<std::string>{"x", "y"}));
}

TEST(StructureTest, ArrayAssignIsMayNotMust) {
  auto p = parse(
      "      program t\n"
      "      real a(10)\n"
      "      a(i) = 1.0\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  EXPECT_TRUE(must_defined_scalars(stmts.first(), stmts.last()).empty());
  EXPECT_EQ(names(may_defined_symbols(stmts.first(), stmts.last())),
            (std::set<std::string>{"a"}));
}

TEST(StructureTest, IfBranchesIntersectForMust) {
  auto p = parse(
      "      program t\n"
      "      if (c .gt. 0.0) then\n"
      "        x = 1.0\n"
      "        y = 1.0\n"
      "      else\n"
      "        x = 2.0\n"
      "      end if\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto must = must_defined_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(names(must), (std::set<std::string>{"x"}));
  auto may = may_defined_symbols(stmts.first(), stmts.last());
  EXPECT_EQ(names(may), (std::set<std::string>{"x", "y"}));
}

TEST(StructureTest, IfWithoutElseIsNotMust) {
  auto p = parse(
      "      program t\n"
      "      if (c .gt. 0.0) then\n"
      "        x = 1.0\n"
      "      end if\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  EXPECT_TRUE(must_defined_scalars(stmts.first(), stmts.last()).empty());
}

TEST(StructureTest, UpwardExposedUses) {
  auto p = parse(
      "      program t\n"
      "      x = y + 1.0\n"   // y exposed
      "      z = x + 1.0\n"   // x defined above: not exposed
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto exposed = upward_exposed_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(names(exposed), (std::set<std::string>{"y"}));
}

TEST(StructureTest, ExposedThroughConditionalDef) {
  // x defined only in one branch: later use is still exposed.
  auto p = parse(
      "      program t\n"
      "      if (c .gt. 0.0) then\n"
      "        x = 1.0\n"
      "      end if\n"
      "      y = x\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto exposed = upward_exposed_scalars(stmts.first(), stmts.last());
  EXPECT_TRUE(exposed.count(p->main()->symtab().lookup("x")));
}

TEST(StructureTest, LoopBodyDefsAreMay) {
  // A loop may execute zero times, so its defs are not must-defs of the
  // surrounding region; uses inside are exposed.
  auto p = parse(
      "      program t\n"
      "      do i = 1, n\n"
      "        x = y + 1.0\n"
      "      end do\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto must = must_defined_scalars(stmts.first(), stmts.last());
  EXPECT_FALSE(must.count(p->main()->symtab().lookup("x")));
  EXPECT_TRUE(must.count(p->main()->symtab().lookup("i")));  // index set
  auto exposed = upward_exposed_scalars(stmts.first(), stmts.last());
  EXPECT_TRUE(exposed.count(p->main()->symtab().lookup("y")));
  EXPECT_TRUE(exposed.count(p->main()->symtab().lookup("n")));
}

TEST(StructureTest, CallMakesArgsMayDefined) {
  auto p = parse(
      "      program t\n"
      "      call sub(x, 1)\n"
      "      end\n"
      "      subroutine sub(a, n)\n"
      "      a = n\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  auto may = may_defined_symbols(stmts.first(), stmts.last());
  EXPECT_TRUE(may.count(p->main()->symtab().lookup("x")));
  EXPECT_TRUE(must_defined_scalars(stmts.first(), stmts.last()).empty());
}

TEST(StructureTest, IrregularFlowDetection) {
  auto p = parse(
      "      program t\n"
      "      goto 10\n"
      "   10 continue\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  EXPECT_TRUE(has_irregular_flow(stmts.first(), stmts.last()));
}

TEST(StructureTest, ClassicDoTerminatorIsNotIrregular) {
  // The label on a classic DO terminator is not a goto target.
  auto p = parse(
      "      program t\n"
      "      do 100 i = 1, 10\n"
      "      x = 1.0\n"
      "  100 continue\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  EXPECT_FALSE(has_irregular_flow(stmts.first(), stmts.last()));
}

TEST(StructureTest, LoopInvariance) {
  auto p = parse(
      "      program t\n"
      "      real a(100)\n"
      "      do i = 1, n\n"
      "        x = x + 1.0\n"
      "        a(i) = n*2 + m\n"
      "      end do\n"
      "      end\n");
  DoStmt* loop = p->main()->stmts().loops()[0];
  SymbolTable& st = p->main()->symtab();
  ExprPtr inv = parse_expression("n*2 + m", st);
  ExprPtr varying = parse_expression("x + i", st);
  EXPECT_TRUE(is_loop_invariant(*inv, loop));
  EXPECT_FALSE(is_loop_invariant(*varying, loop));
  // A user function call is never invariant; an intrinsic one may be.
  EXPECT_FALSE(is_loop_invariant(*parse_expression("f(m)", st), loop));
  EXPECT_TRUE(is_loop_invariant(*parse_expression("sqrt(m)", st), loop));
}

TEST(StructureTest, LiveAfterLoop) {
  auto p = parse(
      "      program t\n"
      "      do i = 1, n\n"
      "        x = i*2\n"
      "        y = i*3\n"
      "      end do\n"
      "      z = x + 1\n"  // x live-out; y is not
      "      y = 0\n"
      "      end\n");
  DoStmt* loop = p->main()->stmts().loops()[0];
  SymbolTable& st = p->main()->symtab();
  EXPECT_TRUE(is_live_after(loop, st.lookup("x")));
  EXPECT_FALSE(is_live_after(loop, st.lookup("y")));
}

TEST(StructureTest, EnclosingLoops) {
  auto p = parse(
      "      program t\n"
      "      do i = 1, 2\n"
      "        do j = 1, 2\n"
      "          x = 1\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto loops = p->main()->stmts().loops();
  Statement* body = loops[1]->next();
  auto enc = enclosing_loops(body);
  ASSERT_EQ(enc.size(), 2u);
  EXPECT_EQ(enc[0]->index()->name(), "i");
  EXPECT_EQ(enc[1]->index()->name(), "j");
}

}  // namespace
}  // namespace polaris
