// AnalysisManager tests: memoization (recompute counts) and cache refresh
// after a rewrite inside a pass.
#include "analysis/analysis_manager.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "passes/normalize.h"
#include "support/options.h"

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

TEST(AnalysisManagerTest, RepeatedQueryIsCacheHit) {
  auto p = parse(
      "      program t\n"
      "      x = 1.0\n"
      "      y = x + 1.0\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  AnalysisManager am;

  const auto& a = am.must_defined_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(am.stats().queries, 1u);
  EXPECT_EQ(am.stats().recomputes, 1u);
  EXPECT_EQ(am.stats().hits, 0u);

  const auto& b = am.must_defined_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(&a, &b);  // same cached object, not a recomputation
  EXPECT_EQ(am.stats().queries, 2u);
  EXPECT_EQ(am.stats().recomputes, 1u);
  EXPECT_EQ(am.stats().hits, 1u);
  EXPECT_EQ(names(b), (std::set<std::string>{"x", "y"}));
}

TEST(AnalysisManagerTest, DistinctQueriesCacheIndependently) {
  auto p = parse(
      "      program t\n"
      "      real a(10)\n"
      "      a(i) = x\n"
      "      end\n");
  auto& stmts = p->main()->stmts();
  AnalysisManager am;

  am.may_defined_symbols(stmts.first(), stmts.last());
  am.upward_exposed_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(am.stats().recomputes, 2u);  // different query kinds both miss
  am.may_defined_symbols(stmts.first(), stmts.last());
  am.upward_exposed_scalars(stmts.first(), stmts.last());
  EXPECT_EQ(am.stats().recomputes, 2u);
  EXPECT_EQ(am.stats().hits, 2u);
}

TEST(AnalysisManagerTest, MutatingPassRefreshesCachedFacts) {
  // Loop normalization rewrites the body's index uses in place (the body
  // statements survive, their expressions change), so a cached
  // upward-exposed answer for the body is stale afterwards.  The pass
  // self-invalidates; the next query must see the normalized index, not
  // the original.
  auto p = parse(
      "      program t\n"
      "      real a(10)\n"
      "      do i = 1, 9, 2\n"
      "        a(i) = 1.0\n"
      "      end do\n"
      "      end\n");
  ProgramUnit& unit = *p->main();
  DoStmt* loop = unit.stmts().loops().front();
  Statement* body_first = loop->next();
  Statement* body_last = loop->follow()->prev();

  AnalysisManager am;
  std::set<std::string> before =
      names(am.upward_exposed_scalars(body_first, body_last));
  EXPECT_EQ(before.count("i"), 1u);

  Options opts = Options::polaris();
  Diagnostics diags;
  ASSERT_EQ(normalize_loops(unit, opts, diags, am), 1);

  std::set<std::string> after =
      names(am.upward_exposed_scalars(body_first, body_last));
  EXPECT_EQ(after.count("i"), 0u) << "cache served a stale pre-pass answer";
  EXPECT_NE(after, before);
  EXPECT_GE(am.stats().invalidations, 1u);
}

}  // namespace
}  // namespace polaris
