#include "parser/splitter.h"

namespace polaris {

namespace {

/// True when one assembled line is exactly the unit terminator: an
/// optional statement label, then the identifier END, then end of
/// statement — the token shape Parser::parse_unit tests with
/// `is_ident("end") && peek(1) == EndOfLine`.  Tokenization failures
/// (the lexer would diagnose this line) mean "not a terminator": the
/// line stays in its unit and the unit's lex reports the error.
bool is_end_line(const RawLine& line) {
  if (line.is_directive) return false;
  // The label is stripped without its range check: an oversized label on
  // END still ends the unit, and the unit's lex reports it.
  const std::string_view body =
      std::string_view(line.text).substr(find_label(line.text).end);
  // Cheap prefilter before paying for tokenization: the terminator's
  // first significant character can only be e/E.
  const std::size_t j = body.find_first_not_of(" \t");
  if (j == std::string_view::npos || (body[j] != 'e' && body[j] != 'E'))
    return false;
  try {
    std::vector<Token> toks = tokenize(body);
    return toks.size() == 2 && toks[0].kind == TokKind::Ident &&
           toks[0].text == "end";
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::vector<std::vector<RawLine>> split_units(const std::string& source) {
  std::vector<std::vector<RawLine>> units(1);
  for (RawLine& line : assemble_lines(source)) {
    const bool ends_unit = is_end_line(line);
    units.back().push_back(std::move(line));
    if (ends_unit) units.emplace_back();
  }
  // Lines after the last END form a unit of their own; none, no unit.
  if (units.back().empty()) units.pop_back();
  return units;
}

}  // namespace polaris
