#include "parser/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>

#include "support/assert.h"

namespace polaris {
namespace {

TEST(LexerTest, TokenizesIdentifiersAndInts) {
  auto toks = tokenize("do i = 1, 10");
  ASSERT_EQ(toks.size(), 7u);  // do i = 1 , 10 EOL
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[0].text, "do");
  EXPECT_EQ(toks[3].kind, TokKind::IntLit);
  EXPECT_EQ(toks[3].int_value, 1);
  EXPECT_EQ(toks[5].int_value, 10);
  EXPECT_EQ(toks.back().kind, TokKind::EndOfLine);
}

TEST(LexerTest, CaseInsensitiveIdentifiers) {
  auto toks = tokenize("CALL FooBar(X)");
  EXPECT_EQ(toks[0].text, "call");
  EXPECT_EQ(toks[1].text, "foobar");
}

TEST(LexerTest, RealLiterals) {
  auto toks = tokenize("1.5 0.5 2e3 1.5d0 2.d0");
  EXPECT_EQ(toks[0].kind, TokKind::RealLit);
  EXPECT_DOUBLE_EQ(toks[0].real_value, 1.5);
  EXPECT_FALSE(toks[0].is_double);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 0.5);
  EXPECT_DOUBLE_EQ(toks[2].real_value, 2000.0);
  EXPECT_TRUE(toks[3].is_double);
  EXPECT_DOUBLE_EQ(toks[3].real_value, 1.5);
  EXPECT_TRUE(toks[4].is_double);
  EXPECT_DOUBLE_EQ(toks[4].real_value, 2.0);
}

TEST(LexerTest, IntFollowedByDotOpIsNotAReal) {
  // "1.lt.x" must lex as 1 .lt. x, not as real 1. followed by garbage.
  auto toks = tokenize("if (1.lt.x) goto 10");
  bool found_dotop = false;
  for (const auto& t : toks)
    if (t.kind == TokKind::DotOp && t.text == "lt") found_dotop = true;
  EXPECT_TRUE(found_dotop);
}

TEST(LexerTest, DotOperators) {
  auto toks = tokenize("a .lt. b .and. .not. c .or. .true.");
  std::vector<std::string> dotops;
  for (const auto& t : toks)
    if (t.kind == TokKind::DotOp) dotops.push_back(t.text);
  EXPECT_EQ(dotops, (std::vector<std::string>{"lt", "and", "not", "or",
                                              "true"}));
}

TEST(LexerTest, TwoCharPuncts) {
  auto toks = tokenize("a ** b <= c");
  EXPECT_EQ(toks[1].text, "**");
  EXPECT_EQ(toks[3].text, "<=");
}

TEST(LexerTest, StringLiterals) {
  auto toks = tokenize("print *, 'hello ''world'''");
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == TokKind::StringLit) {
      EXPECT_EQ(t.text, "hello 'world'");
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(LexerTest, InlineCommentStopsLine) {
  auto toks = tokenize("x = 1 ! trailing comment");
  ASSERT_EQ(toks.size(), 4u);  // x = 1 EOL
}

TEST(LexerTest, UnterminatedStringThrows) {
  EXPECT_THROW(tokenize("x = 'oops"), UserError);
}

TEST(LexerTest, BadCharacterThrows) {
  EXPECT_THROW(tokenize("x = a @ b"), UserError);
}

TEST(LexerTest, LogicalLinesDropComments) {
  auto lines = lex("c comment line\n      x = 1\n! another\n      y = 2\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].tokens[0].text, "x");
  EXPECT_EQ(lines[1].tokens[0].text, "y");
}

TEST(LexerTest, LabelsExtracted) {
  auto lines = lex("  100 continue\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].label, 100);
  EXPECT_EQ(lines[0].tokens[0].text, "continue");
}

TEST(LexerTest, ContinuationJoining) {
  auto lines = lex("      x = 1 + &\n     &    2\n");
  ASSERT_EQ(lines.size(), 1u);
  // x = 1 + 2 -> 6 tokens with EOL
  EXPECT_EQ(lines[0].tokens.size(), 6u);
}

TEST(LexerTest, DirectiveCommentsKept) {
  auto lines = lex("csrd$ doall\n      x = 1\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].is_comment);
  EXPECT_EQ(lines[0].comment, "csrd$ doall");
}

TEST(LexerTest, StarColumnOneIsComment) {
  auto lines = lex("* old style comment\n      x = 1\n");
  ASSERT_EQ(lines.size(), 1u);
}

TEST(LexerTest, MaxLabelAccepted) {
  auto lines = lex("99999 continue\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].label, 99999);
}

TEST(LexerTest, LeadingZerosDoNotInflateLabel) {
  auto lines = lex("0000000100 continue\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].label, 100);
}

TEST(LexerTest, LabelJustOverMaxThrows) {
  EXPECT_THROW(lex("100000 continue\n"), UserError);
}

TEST(LexerTest, OversizedLabelIsPositionedUserError) {
  // A 15-digit label used to escape as std::out_of_range from std::stoi;
  // it must surface as a positioned lex error instead.
  try {
    lex("      x = 1\n123456789012345 continue\n");
    FAIL() << "expected UserError";
  } catch (const UserError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("123456789012345"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exceeds the maximum 99999"), std::string::npos) << msg;
  }
}

TEST(LexerTest, OutOfRangeLiteralsArePositionedUserErrors) {
  // No int64/double value: a positioned lex error that names the
  // literal, never an escaped std::out_of_range.
  for (const char* lit : {"99999999999999999999", "1.0e999", "1.0d-999"}) {
    try {
      lex(std::string("      x = 1\n      x = ") + lit + "\n");
      FAIL() << "expected UserError for " << lit;
    } catch (const UserError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("line 2, column 11"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + lit + "' is out of range"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(LexerTest, LiteralsAtTheRangeEdgesKeepTheirValues) {
  auto toks = tokenize(
      "9223372036854775807 1.7976931348623157d308 2.2250738585072014e-308 "
      "0e999");
  EXPECT_EQ(toks[0].int_value, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(toks[1].real_value, std::numeric_limits<double>::max());
  EXPECT_EQ(toks[2].real_value, std::numeric_limits<double>::min());
  EXPECT_EQ(toks[3].real_value, 0.0);
  EXPECT_THROW(tokenize("9223372036854775808"), UserError);
  // Subnormal results are out of range too, as they were for std::stod.
  EXPECT_THROW(tokenize("1.0e-310"), UserError);
}

TEST(LexerTest, AssembledLinesCarryWholeFilePhysicalLines) {
  const std::string src =
      "c header\n"          // 1
      "      x = 1 + &\n"   // 2
      "     &    2\n"       // 3
      "csrd$ doall\n"       // 4
      "\n"                  // 5
      "  100 continue\n";   // 6
  std::vector<RawLine> raw = assemble_lines(src);
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0].first_line, 2);
  EXPECT_EQ(raw[0].last_line, 3);
  EXPECT_TRUE(raw[1].is_directive);
  EXPECT_EQ(raw[1].text, "csrd$ doall");
  EXPECT_EQ(raw[1].first_line, 4);
  EXPECT_EQ(raw[1].last_line, 4);
  EXPECT_EQ(raw[2].first_line, 6);
  EXPECT_EQ(find_label(raw[2].text).begin, 2u);
  EXPECT_EQ(find_label(raw[2].text).end, 5u);

  // Stage 2 on a tail of the lines keeps whole-file line numbers, in
  // source_line and in diagnostics.
  std::vector<LogicalLine> tail = lex_lines(std::span(raw).subspan(1));
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].source_line, 4);
  EXPECT_EQ(tail[1].source_line, 6);
  EXPECT_EQ(tail[1].label, 100);
  std::vector<RawLine> bad = assemble_lines("      x = 1\n\n      y = 'oops\n");
  try {
    lex_lines(std::span(bad).subspan(1));
    FAIL() << "expected UserError";
  } catch (const UserError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace polaris
