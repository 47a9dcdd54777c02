// Structural IR verifier: each test deliberately corrupts one invariant and
// checks the verifier names it — without crashing on the broken IR.
#include "ir/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/build.h"
#include "ir/program.h"

namespace polaris {

/// Test-only seam declared as a friend by Statement and StmtList: the
/// public API keeps links and the label map consistent, so detection paths
/// for genuinely corrupted IR are only reachable by poking the privates.
class VerifierTestPeer {
 public:
  static void set_prev(Statement* s, Statement* p) { s->prev_ = p; }
  static void set_outer(Statement* s, DoStmt* d) { s->outer_ = d; }
  static void set_list(Statement* s, StmtList* l) { s->list_ = l; }
  static void map_label(StmtList& list, int label, Statement* s) {
    list.labels_[label] = s;
  }
  static void set_size(StmtList& list, std::size_t n) { list.size_ = n; }
};

namespace {

bool has_rule(const std::vector<VerifierViolation>& vs,
              const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(), [&](const VerifierViolation& v) {
    return v.rule == rule;
  });
}

/// program main containing `do i = 1, n / a(i) = 0.0 / enddo`.
std::unique_ptr<ProgramUnit> make_unit() {
  auto unit = std::make_unique<ProgramUnit>(UnitKind::Program, "main");
  Symbol* n =
      unit->symtab().declare("n", Type::integer(), SymbolKind::Variable);
  Symbol* a =
      unit->symtab().declare("a", Type::real(), SymbolKind::Variable);
  std::vector<Dimension> dims;
  dims.emplace_back(nullptr, ib::ic(100));
  a->set_dims(std::move(dims));
  Symbol* i =
      unit->symtab().declare("i", Type::integer(), SymbolKind::Variable);
  std::vector<StmtPtr> frag;
  frag.push_back(std::make_unique<AssignStmt>(ib::var(n), ib::ic(100)));
  frag.push_back(std::make_unique<DoStmt>(i, ib::ic(1), ib::var(n), nullptr));
  frag.push_back(
      std::make_unique<AssignStmt>(ib::aref(a, ib::var(i)), ib::rc(0.0)));
  frag.push_back(std::make_unique<EndDoStmt>());
  unit->stmts().splice_back(std::move(frag));
  return unit;
}

TEST(VerifierTest, CleanUnitHasNoViolations) {
  auto unit = make_unit();
  EXPECT_TRUE(verify_unit(*unit).empty());
}

TEST(VerifierTest, CleanProgramHasNoViolations) {
  Program p;
  p.add_unit(make_unit());
  EXPECT_TRUE(verify_program(p).empty());
}

TEST(VerifierTest, DanglingSymbolDetected) {
  auto unit = make_unit();
  // A symbol owned by a foreign table referenced from this unit's IR.
  SymbolTable foreign;
  Symbol* ghost =
      foreign.declare("ghost", Type::integer(), SymbolKind::Variable);
  unit->stmts().push_back(
      std::make_unique<AssignStmt>(ib::var(ghost), ib::ic(1)));
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "dangling-symbol")) << format_violations(vs);
}

TEST(VerifierTest, OrphanedStatementLinkDetected) {
  auto unit = make_unit();
  Statement* second = unit->stmts().first()->next();
  VerifierTestPeer::set_prev(second, nullptr);  // breaks prev/next symmetry
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "stmt-links")) << format_violations(vs);
}

TEST(VerifierTest, WrongOwnerDetected) {
  auto unit = make_unit();
  StmtList other;
  VerifierTestPeer::set_list(unit->stmts().first(), &other);
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "stmt-links")) << format_violations(vs);
}

TEST(VerifierTest, SizeMismatchDetected) {
  auto unit = make_unit();
  VerifierTestPeer::set_size(unit->stmts(), 99);
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "stmt-links")) << format_violations(vs);
}

TEST(VerifierTest, StaleLabelMapDetected) {
  auto unit = make_unit();
  Statement* first = unit->stmts().first();
  first->set_label(10);
  unit->stmts().revalidate();  // label map now knows 10 -> first
  first->set_label(20);        // direct setter bypasses the map
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "label")) << format_violations(vs);
}

TEST(VerifierTest, BogusLabelMapEntryDetected) {
  auto unit = make_unit();
  VerifierTestPeer::map_label(unit->stmts(), 30, unit->stmts().first());
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "label")) << format_violations(vs);
}

TEST(VerifierTest, UnresolvedGotoDetected) {
  auto unit = make_unit();
  unit->stmts().push_back(std::make_unique<GotoStmt>(999));
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "unresolved-label")) << format_violations(vs);
}

TEST(VerifierTest, CorruptedDoNestDetected) {
  auto unit = make_unit();
  // The assignment inside the loop claims it is not enclosed by any DO.
  Statement* body = nullptr;
  for (Statement* s : unit->stmts())
    if (s->kind() == StmtKind::Do) body = s->next();
  ASSERT_NE(body, nullptr);
  VerifierTestPeer::set_outer(body, nullptr);
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "do-nest")) << format_violations(vs);
}

TEST(VerifierTest, RankMismatchDetected) {
  auto unit = make_unit();
  Symbol* a = unit->symtab().lookup("a");
  // a is declared a(100): referencing a(1,2) is a rank violation.
  unit->stmts().push_back(std::make_unique<AssignStmt>(
      ib::aref(a, ib::ic(1), ib::ic(2)), ib::rc(0.0)));
  auto vs = verify_unit(*unit);
  EXPECT_TRUE(has_rule(vs, "rank-mismatch")) << format_violations(vs);
}

TEST(VerifierTest, ProgramWithoutMainFlagged) {
  Program p;
  auto sub = std::make_unique<ProgramUnit>(UnitKind::Subroutine, "work");
  p.add_unit(std::move(sub));
  auto vs = verify_program(p);
  EXPECT_TRUE(has_rule(vs, "unit")) << format_violations(vs);
}

TEST(VerifierTest, ClonedUnitStaysClean) {
  auto unit = make_unit();
  // ParallelInfo annotations must be remapped by clone — a stale Symbol*
  // into the source unit would be a dangling-symbol violation here.
  for (Statement* s : unit->stmts()) {
    if (s->kind() != StmtKind::Do) continue;
    auto* d = static_cast<DoStmt*>(s);
    d->par.is_parallel = true;
    d->par.private_vars.push_back(unit->symtab().lookup("i"));
  }
  auto copy = unit->clone("main");
  unit.reset();  // destroy the source: any unmapped pointer now dangles
  auto vs = verify_unit(*copy);
  EXPECT_TRUE(vs.empty()) << format_violations(vs);
}

}  // namespace
}  // namespace polaris
