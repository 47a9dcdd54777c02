// The top-level unit splitter and the parallel per-unit parse built on it.
// The load-bearing property everywhere: a sliced parse is *indistinguishable*
// from a whole-file parse — same units, same printed source, same
// diagnostics, same line numbers — at any worker count.
#include "parser/splitter.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "parser/lexer.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "suite/suite.h"
#include "support/assert.h"
#include "support/context.h"

namespace polaris {
namespace {

using Bounds = std::vector<std::pair<int, int>>;

/// Each unit's first and last physical line.
Bounds unit_bounds(const std::vector<std::vector<RawLine>>& units) {
  Bounds out;
  for (const auto& unit : units)
    out.emplace_back(unit.front().first_line, unit.back().last_line);
  return out;
}

Bounds unit_bounds(const std::string& src) {
  return unit_bounds(split_units(src));
}

TEST(SplitterTest, SingleUnit) {
  EXPECT_EQ(unit_bounds("      program main\n      x = 1\n      end\n"),
            (Bounds{{1, 3}}));
}

TEST(SplitterTest, TwoUnitsCutAfterEnd) {
  const std::string src =
      "      subroutine a\n      end\n"
      "      subroutine b\n      end\n";
  EXPECT_EQ(unit_bounds(src), (Bounds{{1, 2}, {3, 4}}));
}

TEST(SplitterTest, CommentsBetweenUnitsAttachToNextSlice) {
  // The plain comment and the blank line are gone after line assembly;
  // the directive opens the next unit.
  const std::string src =
      "      subroutine a\n      end\n"
      "c bridge comment\ncsrd$ doall\n\n"
      "      subroutine b\n      end\n";
  auto units = split_units(src);
  EXPECT_EQ(unit_bounds(units), (Bounds{{1, 2}, {4, 7}}));
  ASSERT_EQ(units.size(), 2u);
  EXPECT_TRUE(units[1].front().is_directive);
}

TEST(SplitterTest, LabeledEndTerminates) {
  const std::string src =
      "      subroutine a\n  100 end\n      subroutine b\n      end\n";
  auto slices = split_units(src);
  ASSERT_EQ(slices.size(), 2u);
}

TEST(SplitterTest, EndWithInlineCommentTerminates) {
  const std::string src =
      "      subroutine a\n      end ! of a\n"
      "      subroutine b\n      end\n";
  auto slices = split_units(src);
  ASSERT_EQ(slices.size(), 2u);
}

TEST(SplitterTest, EndDoAndEndIfAreNotTerminators) {
  const std::string src =
      "      subroutine a\n"
      "      do i = 1, 4\n"
      "      if (i .gt. 2) then\n"
      "      end if\n"
      "      end do\n"
      "      enddo\n"
      "      end\n";
  auto slices = split_units(src);
  ASSERT_EQ(slices.size(), 1u);
}

TEST(SplitterTest, ContinuedLineEndingInEndIsNotATerminator) {
  // "x = y + &\n end" joins to "x = y + end" — one (malformed) logical
  // line, not a unit terminator.
  const std::string src =
      "      subroutine a\n      x = y + &\n     & zend\n      end\n";
  auto slices = split_units(src);
  ASSERT_EQ(slices.size(), 1u);
}

TEST(SplitterTest, TrailingCommentsDropTrailingSliceDirectivesKeepIt) {
  auto dropped = split_units(
      "      subroutine a\n      end\nc trailing chatter\n\n");
  EXPECT_EQ(dropped.size(), 1u);
  auto kept = split_units("      subroutine a\n      end\ncsrd$ doall\n");
  EXPECT_EQ(unit_bounds(kept), (Bounds{{1, 2}, {3, 3}}));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(kept[1].front().is_directive);
  EXPECT_EQ(kept[1].front().text, "csrd$ doall");
}

TEST(SplitterTest, EmptyAndBlankSources) {
  EXPECT_TRUE(split_units("").empty());
  EXPECT_TRUE(split_units("\n\nc nothing here\n").empty());
}

TEST(SplitterTest, SlicesConcatenateToTheSource) {
  // Concatenated, the units are exactly the whole file's assembled lines,
  // so the unit boundaries ascend with no gap in the line sequence.
  for (const auto& bench : benchmark_suite()) {
    auto units = split_units(bench.source);
    ASSERT_GE(units.size(), 1u) << bench.name;
    std::vector<RawLine> joined;
    for (const auto& unit : units)
      joined.insert(joined.end(), unit.begin(), unit.end());
    std::vector<RawLine> whole = assemble_lines(bench.source);
    ASSERT_EQ(joined.size(), whole.size()) << bench.name;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(joined[i].text, whole[i].text) << bench.name;
      EXPECT_EQ(joined[i].first_line, whole[i].first_line) << bench.name;
      EXPECT_EQ(joined[i].last_line, whole[i].last_line) << bench.name;
      EXPECT_EQ(joined[i].is_directive, whole[i].is_directive) << bench.name;
    }
    int previous_last = 0;
    for (const auto& [first, last] : unit_bounds(units)) {
      EXPECT_GT(first, previous_last) << bench.name;
      EXPECT_GE(last, first) << bench.name;
      previous_last = last;
    }
  }
}

/// Physical lines [first, last] of `src`, each newline-terminated.
std::string physical_lines(const std::string& src, int first, int last) {
  std::string out;
  int line = 1;
  for (std::size_t pos = 0; pos < src.size() && line <= last; ++line) {
    std::size_t nl = src.find('\n', pos);
    if (nl == std::string::npos) nl = src.size();
    if (line >= first) out.append(src, pos, nl - pos).append(1, '\n');
    pos = nl + 1;
  }
  return out;
}

TEST(SplitterTest, SlicedParseMatchesWholeFileParseOverSuite) {
  for (const auto& bench : benchmark_suite()) {
    auto whole = parse_program(bench.source);
    // Every unit's physical lines parse on their own, and the unit totals
    // agree with the whole-file parse.
    std::size_t sliced_units = 0;
    for (const auto& [first, last] : unit_bounds(bench.source))
      sliced_units +=
          parse_program(physical_lines(bench.source, first, last))
              ->units()
              .size();
    EXPECT_EQ(sliced_units, whole->units().size()) << bench.name;
  }
}

/// What lexing produced: the first error, or every logical line.
struct LexOutcome {
  std::string error;
  std::vector<LogicalLine> lines;
};

LexOutcome lex_whole(const std::string& src) {
  LexOutcome out;
  try {
    out.lines = lex(src);
  } catch (const UserError& e) {
    out.error = e.what();
  }
  return out;
}

LexOutcome lex_sliced(const std::string& src) {
  LexOutcome out;
  try {
    for (const auto& unit : split_units(src)) {
      std::vector<LogicalLine> lines = lex_lines(unit);
      out.lines.insert(out.lines.end(), lines.begin(), lines.end());
    }
  } catch (const UserError& e) {
    out.error = e.what();
    out.lines.clear();
  }
  return out;
}

void expect_same_lexing(const std::string& src, const std::string& what) {
  const LexOutcome whole = lex_whole(src);
  const LexOutcome sliced = lex_sliced(src);
  EXPECT_EQ(whole.error, sliced.error) << what;
  ASSERT_EQ(whole.lines.size(), sliced.lines.size()) << what;
  for (std::size_t i = 0; i < whole.lines.size(); ++i) {
    const LogicalLine& a = whole.lines[i];
    const LogicalLine& b = sliced.lines[i];
    EXPECT_EQ(a.label, b.label) << what << " line " << i;
    EXPECT_EQ(a.source_line, b.source_line) << what << " line " << i;
    EXPECT_EQ(a.is_comment, b.is_comment) << what << " line " << i;
    EXPECT_EQ(a.comment, b.comment) << what << " line " << i;
    ASSERT_EQ(a.tokens.size(), b.tokens.size()) << what << " line " << i;
    for (std::size_t t = 0; t < a.tokens.size(); ++t) {
      EXPECT_EQ(a.tokens[t].kind, b.tokens[t].kind) << what;
      EXPECT_EQ(a.tokens[t].text, b.tokens[t].text) << what;
      EXPECT_EQ(a.tokens[t].int_value, b.tokens[t].int_value) << what;
      EXPECT_EQ(a.tokens[t].real_value, b.tokens[t].real_value) << what;
      EXPECT_EQ(a.tokens[t].column, b.tokens[t].column) << what;
    }
  }
}

TEST(SplitterTest, SlicesLexLikeTheWholeFile) {
  // Lexing unit by unit must give the whole-file lex's first error, or
  // the same logical lines with the same whole-file line numbers.  The
  // sources: every suite code, the combined suite, TRACK, and the fuzz
  // battery's fixed-seed truncations, garblings and label splices.
  std::vector<std::pair<std::string, std::string>> sources = {
      {"combined", combined_suite_source()}, {"track", kTrackSource}};
  for (const auto& bench : benchmark_suite()) {
    const std::string& src = bench.source;
    sources.emplace_back(bench.name, src);
    for (double frac : {0.15, 0.4, 0.55, 0.7, 0.85, 0.97})
      sources.emplace_back(
          bench.name + " truncated",
          src.substr(0, static_cast<size_t>(src.size() * frac)));
    std::string garbled = src;
    const char junk[] = ")(=$*";
    for (size_t i = 11; i < garbled.size(); i += 37)
      garbled[i] = junk[i % (sizeof(junk) - 1)];
    sources.emplace_back(bench.name + " garbled", garbled);
    for (const char* splice : {"99999999999999999999 ", "  100 end\n",
                               "csrd$ doall\n", "     & x\n"}) {
      std::string spliced = src;
      std::size_t pos = spliced.find('\n', spliced.size() / 2);
      spliced.insert(pos == std::string::npos ? 0 : pos + 1, splice);
      sources.emplace_back(bench.name + " spliced", spliced);
    }
  }
  for (unsigned seed = 1; seed <= 64; ++seed) {
    // The fuzz battery's random single-character mutations.
    std::mt19937 rng(seed);
    const auto& suite = benchmark_suite();
    std::string src = suite[rng() % suite.size()].source;
    const char alphabet[] = "abcxyz0189()+-*/=.,$ \n&!";
    int mutations = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations && !src.empty(); ++m) {
      size_t pos = rng() % src.size();
      switch (rng() % 3) {
        case 0:
          src[pos] = alphabet[rng() % (sizeof(alphabet) - 1)];
          break;
        case 1:
          src.erase(pos, 1 + rng() % 3);
          break;
        default:
          src.insert(pos, 1, alphabet[rng() % (sizeof(alphabet) - 1)]);
          break;
      }
    }
    sources.emplace_back("mutation seed " + std::to_string(seed), src);
  }
  for (const auto& [what, src] : sources) expect_same_lexing(src, what);
}

TEST(ParallelParseTest, JobsCountsProduceIdenticalPrintedSource) {
  for (const auto& bench : benchmark_suite()) {
    CompileContext cc1, cc8;
    auto serial = parse_program(bench.source, &cc1, 1);
    auto parallel = parse_program(bench.source, &cc8, 8);
    EXPECT_EQ(to_source(*serial), to_source(*parallel)) << bench.name;
    ASSERT_EQ(serial->units().size(), parallel->units().size()) << bench.name;
    for (std::size_t u = 0; u < serial->units().size(); ++u) {
      const auto& su = serial->units()[u];
      const auto& pu = parallel->units()[u];
      EXPECT_EQ(su->name(), pu->name());
      // Renumbered ids are a pure function of the text: compare them
      // directly, not modulo a normalization pass.
      const Statement* a = su->stmts().first();
      const Statement* b = pu->stmts().first();
      while (a != nullptr && b != nullptr) {
        EXPECT_EQ(a->id(), b->id()) << bench.name << "/" << su->name();
        a = a->next();
        b = b->next();
      }
      EXPECT_EQ(a == nullptr, b == nullptr);
      ASSERT_EQ(su->symtab().size(), pu->symtab().size());
      for (std::size_t k = 0; k < su->symtab().size(); ++k) {
        EXPECT_EQ(su->symtab().symbols()[k]->name(),
                  pu->symtab().symbols()[k]->name());
        EXPECT_EQ(su->symtab().symbols()[k]->id(),
                  pu->symtab().symbols()[k]->id());
      }
    }
  }
}

TEST(ParallelParseTest, IdsStartAtOneRegardlessOfProcessHistory) {
  // Earlier compilations advance the process-global counters; the
  // renumbering pass must hide that completely.
  auto first = parse_program("      x = 1\n      y = x\n      end\n");
  auto again = parse_program("      x = 1\n      y = x\n      end\n");
  ASSERT_EQ(first->units().size(), 1u);
  ASSERT_EQ(again->units().size(), 1u);
  EXPECT_EQ(first->units()[0]->stmts().first()->id(), 1);
  EXPECT_EQ(again->units()[0]->stmts().first()->id(), 1);
  EXPECT_EQ(first->units()[0]->symtab().symbols()[0]->id(),
            again->units()[0]->symtab().symbols()[0]->id());
}

TEST(ParallelParseTest, MalformedUnitPoisonsOnlyItselfDeterministically) {
  // Unit b is malformed; a and c are fine.  At every jobs count the same
  // textually-first UserError must surface, with whole-file line numbers.
  const std::string src =
      "      subroutine a\n      x = 1\n      end\n"    // lines 1-3
      "      subroutine b\n      x = 'oops\n      end\n"  // lines 4-6
      "      subroutine c\n      y = 2\n      end\n";
  std::string msg1, msg8;
  for (int round = 0; round < 4; ++round) {
    CompileContext cc1, cc8;
    try {
      parse_program(src, &cc1, 1);
      FAIL() << "expected UserError";
    } catch (const UserError& e) {
      if (msg1.empty()) msg1 = e.what();
      EXPECT_EQ(msg1, e.what());
    }
    try {
      parse_program(src, &cc8, 8);
      FAIL() << "expected UserError";
    } catch (const UserError& e) {
      if (msg8.empty()) msg8 = e.what();
      EXPECT_EQ(msg8, e.what());
    }
  }
  EXPECT_EQ(msg1, msg8);
  EXPECT_NE(msg1.find("line 5"), std::string::npos) << msg1;
}

TEST(ParallelParseTest, FirstOfSeveralBadUnitsWins) {
  const std::string src =
      "      subroutine a\n      x = @\n      end\n"
      "      subroutine b\n      y = 'oops\n      end\n";
  for (int jobs : {1, 8}) {
    CompileContext cc;
    try {
      parse_program(src, &cc, jobs);
      FAIL() << "expected UserError";
    } catch (const UserError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace polaris
