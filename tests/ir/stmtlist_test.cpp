// StmtList consistency-enforcement tests — the paper's Section 2 invariants:
// well-formed multiblock statements, automatic link maintenance, run-time
// errors on malformed manipulations.  Construction of multi-statement
// blocks goes through detached fragments (the paper's List<Statement>
// idiom); consistency is checked when a fragment is incorporated.
#include "ir/stmtlist.h"

#include <gtest/gtest.h>

#include "ir/build.h"

namespace polaris {
namespace {

class StmtListTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* j = symtab.declare("j", Type::integer(), SymbolKind::Variable);
  Symbol* x = symtab.declare("x", Type::real(), SymbolKind::Variable);

  StmtPtr assign(Symbol* lhs, std::int64_t v) {
    return std::make_unique<AssignStmt>(ib::var(lhs), ib::ic(v));
  }
  StmtPtr make_do(Symbol* idx, std::int64_t lo, std::int64_t hi) {
    return std::make_unique<DoStmt>(idx, ib::ic(lo), ib::ic(hi), nullptr);
  }

  /// Splices a brace-list of statements into `l` as one fragment.
  void build(StmtList& l, std::vector<StmtPtr> frag) {
    l.splice_back(std::move(frag));
  }

  static std::vector<StmtPtr> frag() { return {}; }
  template <typename... Rest>
  static std::vector<StmtPtr> frag(StmtPtr first, Rest... rest) {
    std::vector<StmtPtr> v = frag(std::move(rest)...);
    v.insert(v.begin(), std::move(first));
    return v;
  }
};

TEST_F(StmtListTest, PushBackLinksAndCounts) {
  StmtList l;
  Statement* s1 = l.push_back(assign(x, 1));
  Statement* s2 = l.push_back(assign(x, 2));
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.first(), s1);
  EXPECT_EQ(l.last(), s2);
  EXPECT_EQ(s1->next(), s2);
  EXPECT_EQ(s2->prev(), s1);
  EXPECT_EQ(s2->next(), nullptr);
}

TEST_F(StmtListTest, IncrementalIllFormedConstructionIsRejected) {
  // Pushing a lone DO (without its ENDDO) violates well-formedness at the
  // incorporation boundary — the designed failure mode.
  StmtList l;
  EXPECT_THROW(l.push_back(make_do(i, 1, 10)), InternalError);
}

TEST_F(StmtListTest, DoFollowLinkDerived) {
  StmtList l;
  build(l, frag(make_do(i, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>()));
  auto* d = static_cast<DoStmt*>(l.first());
  auto* e = static_cast<EndDoStmt*>(l.last());
  EXPECT_EQ(d->follow(), e);
  EXPECT_EQ(e->header(), d);
  EXPECT_EQ(d->body_first()->kind(), StmtKind::Assign);
}

TEST_F(StmtListTest, OuterLinksTrackInnermostLoop) {
  StmtList l;
  build(l, frag(make_do(i, 1, 10), make_do(j, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>(), assign(x, 2),
                std::make_unique<EndDoStmt>()));
  auto* d1 = static_cast<DoStmt*>(l.first());
  auto* d2 = static_cast<DoStmt*>(d1->next());
  Statement* body = d2->next();
  Statement* between = d2->follow()->next();

  EXPECT_EQ(body->outer(), d2);
  EXPECT_EQ(between->outer(), d1);
  EXPECT_EQ(d2->outer(), d1);
  EXPECT_EQ(d1->outer(), nullptr);
  // An ENDDO belongs to the enclosing loop, not the one it closes.
  EXPECT_EQ(d2->follow()->outer(), d1);
  EXPECT_EQ(l.depth(body), 2);
}

TEST_F(StmtListTest, UnmatchedEndDoAsserts) {
  StmtList l;
  EXPECT_THROW(l.push_back(std::make_unique<EndDoStmt>()), InternalError);
}

TEST_F(StmtListTest, RemovingHalfOfDoPairAsserts) {
  StmtList l;
  build(l, frag(make_do(i, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>()));
  // Deleting just the DO leaves an unmatched ENDDO -> consistency error.
  EXPECT_THROW(l.remove(l.first()), InternalError);
}

TEST_F(StmtListTest, SpliceAfterInsertsClonedBlock) {
  StmtList l;
  build(l, frag(assign(x, 0), make_do(i, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>(), assign(x, 2)));
  auto* d = static_cast<DoStmt*>(l.first()->next());
  Statement* e = d->follow();

  // Inside the list, as normalize and induction place code after an END DO.
  l.splice_after(e, l.clone_range(d, e));
  EXPECT_EQ(l.size(), 8u);
  auto* copy = static_cast<DoStmt*>(e->next());
  ASSERT_EQ(copy->kind(), StmtKind::Do);
  // follow links must be re-derived after the splice
  EXPECT_EQ(d->follow(), e);
  EXPECT_EQ(copy->follow()->next(), l.last());

  // After the tail.
  Statement* tail_stmt = l.last();
  l.splice_after(tail_stmt, l.clone_range(d, e));
  EXPECT_EQ(l.size(), 11u);
  auto* d3 = static_cast<DoStmt*>(tail_stmt->next());
  ASSERT_EQ(d3->kind(), StmtKind::Do);
  EXPECT_EQ(d3->follow(), l.last());
}

TEST_F(StmtListTest, SpliceBeforeInsertsFragmentInOrder) {
  StmtList l;
  build(l, frag(assign(x, 1), assign(x, 4)));
  Statement* pos = l.last();
  l.splice_before(pos, frag(assign(x, 2), assign(x, 3)));
  std::vector<std::string> texts;
  for (Statement* s : l) texts.push_back(s->to_string());
  EXPECT_EQ(texts, (std::vector<std::string>{"x = 1", "x = 2", "x = 3",
                                             "x = 4"}));
}

TEST_F(StmtListTest, CloneRangeDeepCopies) {
  StmtList l;
  build(l, frag(make_do(i, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>()));
  std::vector<StmtPtr> copy = l.clone_range(l.first(), l.last());
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(l.size(), 3u);  // original untouched
  EXPECT_NE(copy[0].get(), l.first());
  EXPECT_EQ(copy[0]->kind(), StmtKind::Do);
}

TEST_F(StmtListTest, IfChainLinksDerived) {
  StmtList l;
  build(l, frag(std::make_unique<IfStmt>(ib::lt(ib::var(i), ib::ic(5))),
                assign(x, 1),
                std::make_unique<ElseIfStmt>(ib::lt(ib::var(i), ib::ic(10))),
                assign(x, 2), std::make_unique<ElseStmt>(), assign(x, 3),
                std::make_unique<EndIfStmt>()));
  auto* ifs = static_cast<IfStmt*>(l.first());
  auto* elif = static_cast<ElseIfStmt*>(ifs->next_arm());
  ASSERT_NE(elif, nullptr);
  ASSERT_EQ(elif->kind(), StmtKind::ElseIf);
  auto* els = static_cast<ElseStmt*>(elif->next_arm());
  ASSERT_EQ(els->kind(), StmtKind::Else);
  auto* endif = static_cast<EndIfStmt*>(l.last());
  EXPECT_EQ(ifs->end(), endif);
  EXPECT_EQ(elif->end(), endif);
  EXPECT_EQ(els->end(), endif);
}

TEST_F(StmtListTest, NestedIfEndPointers) {
  StmtList l;
  build(l, frag(std::make_unique<IfStmt>(ib::lt(ib::var(i), ib::ic(5))),
                std::make_unique<IfStmt>(ib::lt(ib::var(j), ib::ic(5))),
                assign(x, 1), std::make_unique<EndIfStmt>(),
                std::make_unique<EndIfStmt>()));
  auto* outer_if = static_cast<IfStmt*>(l.first());
  auto* inner_if = static_cast<IfStmt*>(outer_if->next());
  EXPECT_EQ(outer_if->end(), l.last());
  EXPECT_EQ(inner_if->end(), l.last()->prev());
  // An IF with no ELSE arm: next_arm points at the ENDIF.
  EXPECT_EQ(inner_if->next_arm(), inner_if->end());
}

TEST_F(StmtListTest, ElseWithoutIfAsserts) {
  StmtList l;
  EXPECT_THROW(l.push_back(std::make_unique<ElseStmt>()), InternalError);
}

TEST_F(StmtListTest, DuplicateLabelsAssert) {
  StmtList l;
  auto s1 = assign(x, 1);
  s1->set_label(100);
  l.push_back(std::move(s1));
  auto s2 = assign(x, 2);
  s2->set_label(100);
  EXPECT_THROW(l.push_back(std::move(s2)), InternalError);
}

TEST_F(StmtListTest, FindLabel) {
  StmtList l;
  auto s = assign(x, 1);
  s->set_label(200);
  Statement* raw = l.push_back(std::move(s));
  EXPECT_EQ(l.find_label(200), raw);
  EXPECT_EQ(l.find_label(999), nullptr);
}

TEST_F(StmtListTest, LoopsAndBodyHelpers) {
  StmtList l;
  build(l, frag(make_do(i, 1, 10), make_do(j, 1, 10), assign(x, 1),
                std::make_unique<EndDoStmt>(),
                std::make_unique<EndDoStmt>()));
  auto loops = l.loops();
  ASSERT_EQ(loops.size(), 2u);
  DoStmt* d1 = loops[0];
  DoStmt* d2 = loops[1];

  auto inner = l.loops_in(d1);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0], d2);

  auto body = l.body(d2);
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(body[0]->kind(), StmtKind::Assign);

  auto outer_body = l.body(d1);
  EXPECT_EQ(outer_body.size(), 3u);  // do j, assign, enddo
}

}  // namespace
}  // namespace polaris
