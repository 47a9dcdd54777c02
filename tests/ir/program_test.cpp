#include "ir/program.h"

#include <gtest/gtest.h>

#include "ir/build.h"

namespace polaris {
namespace {

std::unique_ptr<ProgramUnit> make_sub(const std::string& name) {
  auto unit = std::make_unique<ProgramUnit>(UnitKind::Subroutine, name);
  Symbol* n = unit->symtab().declare("n", Type::integer(),
                                     SymbolKind::Variable);
  unit->add_formal(n);
  Symbol* a = unit->symtab().declare("a", Type::real(), SymbolKind::Variable);
  std::vector<Dimension> dims;
  dims.emplace_back(nullptr, ib::var(n));  // a(n): bound references a formal
  a->set_dims(std::move(dims));
  unit->add_formal(a);
  Symbol* i = unit->symtab().declare("i", Type::integer(),
                                     SymbolKind::Variable);
  std::vector<StmtPtr> frag;
  frag.push_back(std::make_unique<DoStmt>(i, ib::ic(1), ib::var(n), nullptr));
  frag.push_back(
      std::make_unique<AssignStmt>(ib::aref(a, ib::var(i)), ib::rc(0.0)));
  frag.push_back(std::make_unique<EndDoStmt>());
  unit->stmts().splice_back(std::move(frag));
  return unit;
}

TEST(ProgramTest, AddAndFindUnits) {
  Program p;
  p.add_unit(std::make_unique<ProgramUnit>(UnitKind::Program, "main"));
  p.add_unit(make_sub("init"));
  EXPECT_NE(p.find("main"), nullptr);
  EXPECT_NE(p.find("INIT"), nullptr);
  EXPECT_EQ(p.find("other"), nullptr);
  EXPECT_EQ(p.main()->name(), "main");
}

TEST(ProgramTest, DuplicateUnitAsserts) {
  Program p;
  p.add_unit(std::make_unique<ProgramUnit>(UnitKind::Program, "main"));
  EXPECT_THROW(
      p.add_unit(std::make_unique<ProgramUnit>(UnitKind::Subroutine, "MAIN")),
      InternalError);
}

TEST(ProgramTest, MainAssertsWhenMissing) {
  Program p;
  p.add_unit(make_sub("init"));
  EXPECT_THROW(p.main(), InternalError);
}

TEST(ProgramTest, MergeTransfersUnits) {
  Program p1, p2;
  p1.add_unit(std::make_unique<ProgramUnit>(UnitKind::Program, "main"));
  p2.add_unit(make_sub("init"));
  p1.merge(std::move(p2));
  EXPECT_NE(p1.find("init"), nullptr);
}

TEST(ProgramTest, CloneRemapsSymbols) {
  auto unit = make_sub("init");
  auto copy = unit->clone("init_t");
  EXPECT_EQ(copy->name(), "init_t");
  ASSERT_EQ(copy->formals().size(), 2u);

  // Symbols in the clone are distinct objects with the same names.
  Symbol* orig_n = unit->symtab().lookup("n");
  Symbol* copy_n = copy->symtab().lookup("n");
  ASSERT_NE(copy_n, nullptr);
  EXPECT_NE(copy_n, orig_n);
  EXPECT_TRUE(copy_n->is_formal());

  // The array dimension a(n) must reference the *cloned* n.
  Symbol* copy_a = copy->symtab().lookup("a");
  ASSERT_NE(copy_a, nullptr);
  ASSERT_TRUE(copy_a->is_array());
  const Expression* bound = copy_a->dims()[0].upper.get();
  ASSERT_NE(bound, nullptr);
  ASSERT_EQ(bound->kind(), ExprKind::VarRef);
  EXPECT_EQ(static_cast<const VarRef*>(bound)->symbol(), copy_n);

  // Statements remapped: DO index symbol and array base belong to the clone.
  auto loops = copy->stmts().loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->index(), copy->symtab().lookup("i"));
  EXPECT_EQ(loops[0]->follow()->header(), loops[0]);

  // Mutating the clone leaves the original untouched.
  EXPECT_EQ(unit->stmts().size(), 3u);
  copy->stmts().remove(loops[0]->next());
  EXPECT_EQ(copy->stmts().size(), 2u);
  EXPECT_EQ(unit->stmts().size(), 3u);
}

TEST(ProgramTest, MaxLabel) {
  auto unit = std::make_unique<ProgramUnit>(UnitKind::Program, "main");
  Symbol* x = unit->symtab().declare("x", Type::real(), SymbolKind::Variable);
  auto s1 = std::make_unique<AssignStmt>(ib::var(x), ib::ic(1));
  s1->set_label(100);
  unit->stmts().push_back(std::move(s1));
  auto s2 = std::make_unique<AssignStmt>(ib::var(x), ib::ic(2));
  s2->set_label(30);
  unit->stmts().push_back(std::move(s2));
  EXPECT_EQ(unit->max_label(), 100);
}

TEST(ProgramTest, FunctionResultSymbol) {
  auto unit = std::make_unique<ProgramUnit>(UnitKind::Function, "f");
  Symbol* r = unit->symtab().declare("f", Type::real(), SymbolKind::Variable);
  unit->set_result(r);
  auto copy = unit->clone("f_t");
  EXPECT_EQ(copy->result(), copy->symtab().lookup("f"));
  EXPECT_NE(copy->result(), r);
}

}  // namespace
}  // namespace polaris
