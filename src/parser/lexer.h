// Line-oriented lexer for the PF77 Fortran subset, and the one home of
// Fortran's line discipline.  It works in two stages:
//   1. assemble_lines — the only code that classifies physical lines.
//      Comment lines are dropped (a line whose first non-blank character
//      is '!' or whose column-1 character is C/c/*), directive comments
//      ("csrd$ ..." or "!$...") are kept, and continuations are joined
//      ('&' at end of line, or a leading '&' on the next line).  Never
//      throws.
//   2. lex_lines — statement labels (leading integers) extracted and each
//      logical line tokenized.  Malformed input is a positioned UserError.
// lex() runs both over one source.  The parallel frontend runs stage 1
// once over the whole file, cuts the assembled lines into units
// (parser/splitter.h) and runs stage 2 per unit on its worker, so every
// line number is a whole-file line number.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace polaris {

enum class TokKind {
  Ident,
  IntLit,
  RealLit,     ///< value in `real_value`, is_double flags d-exponent
  StringLit,
  Punct,       ///< text in `text`: ( ) , = : ** * / + - < <= > >= == /=
  DotOp,       ///< .lt. .le. .gt. .ge. .eq. .ne. .and. .or. .not. .true. .false.
  EndOfLine,
};

struct Token {
  TokKind kind = TokKind::EndOfLine;
  std::string text;         ///< identifier (lower-cased), punct, or dot-op name
  std::int64_t int_value = 0;
  double real_value = 0.0;
  bool is_double = false;   ///< real literal had a 'd' exponent
  int column = 0;           ///< for error messages
};

/// One logical line as stage 1 assembles it: not yet labeled or tokenized.
struct RawLine {
  std::string text;       ///< joined statement text, or a directive's body
  int first_line = 0;     ///< first physical line (1-based, whole file)
  int last_line = 0;      ///< last physical line joined into it
  bool is_directive = false;
};

struct LogicalLine {
  int label = 0;             ///< statement label, 0 if none
  int source_line = 0;       ///< first physical line number
  std::vector<Token> tokens; ///< always terminated by EndOfLine
  std::string comment;       ///< set when the line is a kept directive/comment
  bool is_comment = false;
};

/// Largest accepted statement label (the Fortran 77 five-digit field).
/// Longer digit runs are rejected with a positioned UserError — the bound
/// exists so a hostile label can never overflow the accumulator.
constexpr long kMaxStatementLabel = 99999;

/// Stage 1: splits source text into logical lines, whole-file numbered.
std::vector<RawLine> assemble_lines(const std::string& source);

/// Where an assembled line's statement label sits: after leading blanks,
/// a digit run that a blank follows.  [begin, end) is empty when the line
/// has no label; the statement text starts at `end` either way.
struct LabelField {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool present() const { return end > begin; }
};
LabelField find_label(std::string_view text);

/// Stage 2: extracts labels and tokenizes.  Throws UserError on malformed
/// input (bad characters, unterminated strings, out-of-range statement
/// labels or numeric literals).  Directives become comment lines.
std::vector<LogicalLine> lex_lines(std::span<const RawLine> lines);

/// Both stages over one source.
std::vector<LogicalLine> lex(const std::string& source);

/// Tokenizes one statement's text (no labels/continuations); stage 2's
/// building block, also used by the splitter's END test.
std::vector<Token> tokenize(std::string_view text, int source_line = 0);

}  // namespace polaris
