#include "dep/regions.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace polaris {
namespace {

struct Fix {
  std::unique_ptr<Program> prog;
  ProgramUnit* unit;
  std::vector<DoStmt*> loops;

  explicit Fix(const std::string& src) : prog(parse_program(src)) {
    unit = prog->main();
    loops = unit->stmts().loops();
  }

  /// First array write statement inside loops[li].
  std::pair<const ArrayRef*, Statement*> first_write(size_t li) {
    DoStmt* d = loops[li];
    for (Statement* s = d->next(); s != d->follow(); s = s->next()) {
      if (s->kind() != StmtKind::Assign) continue;
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() == ExprKind::ArrayRef)
        return {&static_cast<const ArrayRef&>(a->lhs()), s};
    }
    p_unreachable("no write found");
  }
};

TEST(RegionsTest, IntervalSweepsInnerLoop) {
  Fix f(
      "      program t\n"
      "      real a(1000)\n"
      "      do i = 1, 10\n"
      "        do j = 1, n\n"
      "          a(j + 1) = 0.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto [ref, stmt] = f.first_write(0);
  FactContext ctx = loop_fact_context(stmt);
  LoopBoundsMemo bounds;
  auto iv = access_interval(*ref, 0, stmt, f.loops[0], ctx, bounds);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->lo.to_string(), "2");
  EXPECT_EQ(iv->hi.to_string(), "n+1");
}

TEST(RegionsTest, IntervalKeepsOuterIndexSymbolic) {
  Fix f(
      "      program t\n"
      "      real a(100,100)\n"
      "      do i = 1, 10\n"
      "        do j = 1, 5\n"
      "          a(i, j) = 0.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto [ref, stmt] = f.first_write(0);
  FactContext ctx = loop_fact_context(stmt);
  LoopBoundsMemo bounds;  // shared by both dimensions' sweeps
  auto dim0 = access_interval(*ref, 0, stmt, f.loops[0], ctx, bounds);
  ASSERT_TRUE(dim0.has_value());
  EXPECT_EQ(dim0->lo.to_string(), "i");  // the enclosing loop stays free
  auto dim1 = access_interval(*ref, 1, stmt, f.loops[0], ctx, bounds);
  ASSERT_TRUE(dim1.has_value());
  EXPECT_EQ(dim1->lo.to_string(), "1");
  EXPECT_EQ(dim1->hi.to_string(), "5");
}

TEST(RegionsTest, OpaqueSubscriptFails) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      integer ix(100)\n"
      "      do i = 1, 10\n"
      "        do j = 1, 5\n"
      "          a(ix(j)) = 0.0\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  auto [ref, stmt] = f.first_write(0);
  FactContext ctx = loop_fact_context(stmt);
  LoopBoundsMemo bounds;
  EXPECT_FALSE(
      access_interval(*ref, 0, stmt, f.loops[0], ctx, bounds).has_value());
}

TEST(RegionsTest, BoundsMemoOrientsAndConvertsOnce) {
  Fix f(
      "      program t\n"
      "      do i = 1, n\n"
      "        do j = n, 1, -1\n"
      "          do k = 1, n, m\n"
      "            x = 1\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      end\n");
  LoopBoundsMemo bounds;
  const LoopBounds* bi = bounds.get(f.loops[0]);
  ASSERT_NE(bi, nullptr);
  EXPECT_EQ(bi->lo.to_string(), "1");
  EXPECT_EQ(bi->hi.to_string(), "n");
  EXPECT_EQ(bounds.get(f.loops[0]), bi);  // the same entry, not a new one
  const LoopBounds* bj = bounds.get(f.loops[1]);  // negative step: swapped
  ASSERT_NE(bj, nullptr);
  EXPECT_EQ(bj->lo.to_string(), "1");
  EXPECT_EQ(bj->hi.to_string(), "n");
  EXPECT_EQ(bounds.get(f.loops[2]), nullptr);  // symbolic step
}

TEST(RegionsTest, ContainmentProofs) {
  Fix f(
      "      program t\n"
      "      do i = 1, n\n"
      "        x = 1\n"
      "      end do\n"
      "      end\n");
  SymbolTable& st = f.unit->symtab();
  FactContext ctx;
  Symbol* n = st.lookup("n");
  ExprPtr two = parse_expression("2", st);
  ctx.add_range(n, two.get(), nullptr);
  auto P = [&](const char* text) {
    ExprPtr e = parse_expression(text, st);
    return Polynomial::from_expr(*e);
  };
  Interval outer{P("1"), P("n")};
  Interval inner{P("2"), P("n - 1")};
  EXPECT_TRUE(interval_contains(outer, inner, ctx));
  EXPECT_FALSE(interval_contains(inner, outer, ctx));
  Interval same{P("1"), P("n")};
  EXPECT_TRUE(interval_contains(outer, same, ctx));
}

}  // namespace
}  // namespace polaris

namespace polaris {
namespace {

TEST(RegionsTest, GuardFactsFromEnclosingIf) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      if (n .ge. 2 .and. m .gt. n) then\n"
      "        do i = 1, 10\n"
      "          a(i) = 0.0\n"
      "        end do\n"
      "      end if\n"
      "      end\n");
  auto [ref, stmt] = f.first_write(0);
  FactContext ctx = loop_fact_context(stmt);
  SymbolTable& st = f.unit->symtab();
  auto P = [&](const char* text) {
    ExprPtr e = parse_expression(text, st);
    return Polynomial::from_expr(*e);
  };
  EXPECT_TRUE(prove_ge0(P("n - 2"), ctx));
  EXPECT_TRUE(prove_ge0(P("m - n - 1"), ctx));  // strict, integers
  EXPECT_FALSE(prove_ge0(P("n - 3"), ctx));
}

TEST(RegionsTest, ElseArmContributesNoFacts) {
  Fix f(
      "      program t\n"
      "      real a(100)\n"
      "      if (n .ge. 5) then\n"
      "        x = 1.0\n"
      "      else\n"
      "        do i = 1, 10\n"
      "          a(i) = 0.0\n"
      "        end do\n"
      "      end if\n"
      "      end\n");
  auto [ref, stmt] = f.first_write(0);
  FactContext ctx = loop_fact_context(stmt);
  SymbolTable& st = f.unit->symtab();
  ExprPtr e = parse_expression("n - 5", st);
  EXPECT_FALSE(prove_ge0(Polynomial::from_expr(*e), ctx));
}

}  // namespace
}  // namespace polaris
