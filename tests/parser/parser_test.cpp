#include "parser/parser.h"

#include <gtest/gtest.h>

namespace polaris {
namespace {

TEST(ParserTest, MinimalProgram) {
  auto p = parse_program(
      "      program hello\n"
      "      x = 1.5\n"
      "      end\n");
  ProgramUnit* main = p->main();
  EXPECT_EQ(main->name(), "hello");
  ASSERT_EQ(main->stmts().size(), 1u);
  EXPECT_EQ(main->stmts().first()->kind(), StmtKind::Assign);
}

TEST(ParserTest, ImplicitMainWrapping) {
  auto p = parse_program("x = 1\n");
  EXPECT_EQ(p->main()->name(), "main");
}

TEST(ParserTest, ImplicitTyping) {
  auto p = parse_program("k = 1\nx = 2.0\n");
  ProgramUnit* m = p->main();
  EXPECT_EQ(m->symtab().lookup("k")->type(), Type::integer());
  EXPECT_EQ(m->symtab().lookup("x")->type(), Type::real());
}

TEST(ParserTest, Declarations) {
  auto p = parse_program(
      "      program t\n"
      "      integer n, m\n"
      "      real a(10, 0:20), b\n"
      "      real*8 d\n"
      "      double precision e\n"
      "      logical flag\n"
      "      end\n");
  ProgramUnit* m = p->main();
  EXPECT_EQ(m->symtab().lookup("n")->type(), Type::integer());
  Symbol* a = m->symtab().lookup("a");
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->rank(), 2);
  EXPECT_EQ(a->dims()[1].lower->to_string(), "0");
  EXPECT_EQ(a->dims()[1].upper->to_string(), "20");
  EXPECT_EQ(m->symtab().lookup("d")->type(), Type::double_precision());
  EXPECT_EQ(m->symtab().lookup("e")->type(), Type::double_precision());
  EXPECT_EQ(m->symtab().lookup("flag")->type(), Type::logical());
}

TEST(ParserTest, ParameterAndDimension) {
  auto p = parse_program(
      "      program t\n"
      "      parameter (n = 100, m = n*2)\n"
      "      dimension a(m)\n"
      "      a(1) = 0.0\n"
      "      end\n");
  ProgramUnit* u = p->main();
  Symbol* n = u->symtab().lookup("n");
  EXPECT_EQ(n->kind(), SymbolKind::Parameter);
  EXPECT_EQ(n->param_value()->to_string(), "100");
  Symbol* a = u->symtab().lookup("a");
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->dims()[0].upper->to_string(), "m");
}

TEST(ParserTest, CommonBlocks) {
  auto p = parse_program(
      "      program t\n"
      "      common /blk/ a, b(10)\n"
      "      a = 1.0\n"
      "      end\n");
  Symbol* a = p->main()->symtab().lookup("a");
  Symbol* b = p->main()->symtab().lookup("b");
  EXPECT_EQ(a->common_block(), "blk");
  EXPECT_TRUE(b->is_array());
  EXPECT_EQ(b->common_block(), "blk");
}

TEST(ParserTest, DataStatements) {
  auto p = parse_program(
      "      program t\n"
      "      real x, a(4)\n"
      "      data x /1.5/\n"
      "      data a /2*0.0, 2*1.0/\n"
      "      end\n");
  Symbol* x = p->main()->symtab().lookup("x");
  ASSERT_EQ(x->data_values().size(), 1u);
  Symbol* a = p->main()->symtab().lookup("a");
  ASSERT_EQ(a->data_values().size(), 4u);
  EXPECT_EQ(a->data_values()[1]->to_string(), "0.0");
  EXPECT_EQ(a->data_values()[2]->to_string(), "1.0");
}

TEST(ParserTest, HostileDataCountsArePositionedErrors) {
  // None of these may clone a value before the counts are checked, so the
  // 10^9 repeat allocates nothing.
  const std::pair<const char*, const char*> cases[] = {
      {"      real a(3000000000,3000000000,3000000000)\n"
       "      data a /1.0/\n",
       "parse error at line 3: array a has too many elements"},
      {"      real a(0)\n      data a /1.0/\n",
       "parse error at line 3: array a has an empty dimension 1:0"},
      {"      real x\n      data x /1000000000*1.0/\n",
       "parse error at line 3: DATA: surplus values"},
      {"      real x, y\n      data x, y /0*5.0, 7.0/\n",
       "parse error at line 3: DATA repeat count 0 is not positive"},
      {"      real a(4)\n      data a /3*1.0/\n",
       "parse error at line 3: DATA: not enough values for a"},
  };
  for (const auto& [decls, message] : cases) {
    try {
      parse_program(std::string("      program t\n") + decls + "      end\n");
      ADD_FAILURE() << "no error for: " << decls;
    } catch (const UserError& e) {
      EXPECT_EQ(std::string(e.what()), message) << decls;
    }
  }
  // A repeat that exactly fills the list is fine, across variables too.
  auto p = parse_program(
      "      program t\n"
      "      real x, a(3), y\n"
      "      data x, a, y /2*1.0, 2*2.0, 3.0/\n"
      "      end\n");
  Symbol* a = p->main()->symtab().lookup("a");
  ASSERT_EQ(a->data_values().size(), 3u);
  EXPECT_EQ(a->data_values()[0]->to_string(), "1.0");
  EXPECT_EQ(a->data_values()[2]->to_string(), "2.0");
  EXPECT_EQ(p->main()->symtab().lookup("y")->data_values()[0]->to_string(),
            "3.0");
}

TEST(ParserTest, ModernDoLoop) {
  auto p = parse_program(
      "      do i = 1, 10, 2\n"
      "        s = s + i\n"
      "      end do\n");
  auto loops = p->main()->stmts().loops();
  ASSERT_EQ(loops.size(), 1u);
  DoStmt* d = loops[0];
  EXPECT_EQ(d->index()->name(), "i");
  EXPECT_EQ(d->init().to_string(), "1");
  EXPECT_EQ(d->limit().to_string(), "10");
  EXPECT_EQ(d->step().to_string(), "2");
  ASSERT_NE(d->follow(), nullptr);
}

TEST(ParserTest, ClassicLabeledDo) {
  auto p = parse_program(
      "      do 100 i = 1, 10\n"
      "      do 100 j = 1, 10\n"
      "      s = s + i*j\n"
      "  100 continue\n");
  auto loops = p->main()->stmts().loops();
  ASSERT_EQ(loops.size(), 2u);
  // Both loops share the terminal label; two ENDDOs were synthesized.
  EXPECT_NE(loops[0]->follow(), nullptr);
  EXPECT_NE(loops[1]->follow(), nullptr);
  EXPECT_EQ(loops[1]->outer(), loops[0]);
  EXPECT_EQ(loops[0]->outer(), nullptr);
  // Inner loop is nested one level deep.
  EXPECT_EQ(p->main()->stmts().depth(loops[1]), 1);
}

TEST(ParserTest, BlockIfElse) {
  auto p = parse_program(
      "      if (x .lt. 1.0) then\n"
      "        y = 1\n"
      "      else if (x .lt. 2.0) then\n"
      "        y = 2\n"
      "      else\n"
      "        y = 3\n"
      "      end if\n");
  Statement* s = p->main()->stmts().first();
  ASSERT_EQ(s->kind(), StmtKind::If);
  auto* ifs = static_cast<IfStmt*>(s);
  EXPECT_EQ(ifs->cond().to_string(), "x.lt.1.0");
  ASSERT_NE(ifs->next_arm(), nullptr);
  EXPECT_EQ(ifs->next_arm()->kind(), StmtKind::ElseIf);
}

TEST(ParserTest, LogicalIfDesugarsToBlock) {
  auto p2 = parse_program(
      "      program t\n"
      "      integer ind(100)\n"
      "      if (r .lt. rcuts) ind(j) = 1\n"
      "      end\n");
  auto& stmts = p2->main()->stmts();
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts.first()->kind(), StmtKind::If);
  EXPECT_EQ(stmts.first()->next()->kind(), StmtKind::Assign);
  EXPECT_EQ(stmts.last()->kind(), StmtKind::EndIf);
}

TEST(ParserTest, GotoAndContinue) {
  auto p = parse_program(
      "      program t\n"
      "      goto 10\n"
      "   10 continue\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  EXPECT_EQ(stmts.first()->kind(), StmtKind::Goto);
  EXPECT_EQ(static_cast<GotoStmt*>(stmts.first())->target(), 10);
  EXPECT_EQ(stmts.find_label(10)->kind(), StmtKind::Continue);
}

TEST(ParserTest, SubroutineWithFormalsAndCall) {
  auto p = parse_program(
      "      program t\n"
      "      call init(a, 10)\n"
      "      end\n"
      "      subroutine init(x, n)\n"
      "      real x(n)\n"
      "      x(1) = 0.0\n"
      "      return\n"
      "      end\n");
  ProgramUnit* sub = p->find("init");
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->kind(), UnitKind::Subroutine);
  ASSERT_EQ(sub->formals().size(), 2u);
  EXPECT_EQ(sub->formals()[0]->name(), "x");
  EXPECT_TRUE(sub->formals()[0]->is_array());
  Statement* call = p->main()->stmts().first();
  ASSERT_EQ(call->kind(), StmtKind::Call);
  EXPECT_EQ(static_cast<CallStmt*>(call)->name(), "init");
}

TEST(ParserTest, FunctionUnit) {
  auto p = parse_program(
      "      real function f(x)\n"
      "      f = x*2.0\n"
      "      end\n"
      "      program t\n"
      "      y = f(1.0)\n"
      "      end\n");
  ProgramUnit* f = p->find("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->kind(), UnitKind::Function);
  ASSERT_NE(f->result(), nullptr);
  EXPECT_EQ(f->result()->type(), Type::real());
  // y = f(1.0) parses as a FuncCall.
  auto* assign = static_cast<AssignStmt*>(p->main()->stmts().first());
  EXPECT_EQ(assign->rhs().kind(), ExprKind::FuncCall);
}

TEST(ParserTest, IntrinsicCanonicalization) {
  SymbolTable t;
  ExprPtr e = parse_expression("dsqrt(dabs(x)) + amax1(a, b)", t);
  std::string s = e->to_string();
  EXPECT_NE(s.find("sqrt("), std::string::npos);
  EXPECT_NE(s.find("abs("), std::string::npos);
  EXPECT_NE(s.find("max("), std::string::npos);
}

TEST(ParserTest, IntrinsicTypes) {
  SymbolTable t;
  EXPECT_EQ(parse_expression("mod(i, 2)", t)->type(), Type::integer());
  EXPECT_EQ(parse_expression("sqrt(2.0)", t)->type(), Type::real());
  EXPECT_EQ(parse_expression("abs(i)", t)->type(), Type::integer());
  EXPECT_EQ(parse_expression("int(x)", t)->type(), Type::integer());
}

TEST(ParserTest, OperatorPrecedence) {
  SymbolTable t;
  EXPECT_EQ(parse_expression("a + b*c", t)->to_string(), "a+b*c");
  EXPECT_EQ(parse_expression("(a + b)*c", t)->to_string(), "(a+b)*c");
  EXPECT_EQ(parse_expression("a ** b ** c", t)->to_string(), "a**b**c");
  EXPECT_EQ(parse_expression("-a + b", t)->to_string(), "-a+b");
  EXPECT_EQ(parse_expression("a .lt. b .and. c .lt. d", t)->to_string(),
            "a.lt.b.and.c.lt.d");
}

TEST(ParserTest, ModernRelationalOperators) {
  SymbolTable t;
  EXPECT_EQ(parse_expression("a <= b", t)->to_string(), "a.le.b");
  EXPECT_EQ(parse_expression("a /= b", t)->to_string(), "a.ne.b");
}

TEST(ParserTest, PrintAndWrite) {
  auto p = parse_program(
      "      print *, x, y\n"
      "      write(*,*) z\n");
  auto& stmts = p->main()->stmts();
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(stmts.first()->kind(), StmtKind::Print);
  EXPECT_EQ(static_cast<PrintStmt*>(stmts.first())->items().size(), 2u);
  EXPECT_EQ(stmts.last()->kind(), StmtKind::Print);
}

TEST(ParserTest, ImplicitNoneEnforced) {
  EXPECT_THROW(parse_program("      program t\n"
                             "      implicit none\n"
                             "      x = 1\n"
                             "      end\n"),
               UserError);
}

TEST(ParserTest, UnsupportedStatementThrows) {
  EXPECT_THROW(parse_program("      open(1, file='x')\n"), UserError);
}

TEST(ParserTest, RankMismatchIsUserError) {
  EXPECT_THROW(parse_program("      program t\n"
                             "      real a(10,10)\n"
                             "      a(1) = 0.0\n"
                             "      end\n"),
               UserError);
}

TEST(ParserTest, RankAboveSevenIsPositionedUserError) {
  // Fortran 77 allows at most 7 dimensions, in every declaration form.
  EXPECT_NO_THROW(parse_program("      program t\n"
                                "      real a(2,2,2,2,2,2,2)\n"
                                "      end\n"));
  for (const char* decl : {"      real a(2,2,2,2,2,2,2,2)\n",
                           "      dimension a(2,2,2,2,2,2,2,2)\n",
                           "      common /blk/ a(2,2,2,2,2,2,2,2)\n"}) {
    try {
      parse_program(std::string("      program t\n") + decl +
                    "      end\n");
      ADD_FAILURE() << "rank 8 accepted: " << decl;
    } catch (const UserError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("at most 7"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParserTest, TrfdStyleNest) {
  // The Figure 2 (TRFD) loop shape parses and preserves structure.
  auto p = parse_program(
      "      program trfd\n"
      "      real a(1000)\n"
      "      integer x, x0\n"
      "      x0 = 0\n"
      "      do i = 0, m-1\n"
      "        x = x0\n"
      "        do j = 0, n-1\n"
      "          do k = 0, j-1\n"
      "            x = x + 1\n"
      "            a(x) = 1.0\n"
      "          end do\n"
      "        end do\n"
      "        x0 = x0 + (n**2 + n)/2\n"
      "      end do\n"
      "      end\n");
  auto loops = p->main()->stmts().loops();
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_EQ(loops[2]->limit().to_string(), "j-1");
  EXPECT_EQ(p->main()->stmts().depth(loops[2]), 2);
}

}  // namespace
}  // namespace polaris
