#include "parser/lexer.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "support/assert.h"
#include "support/string_util.h"

namespace polaris {

namespace {

bool is_ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

const char* const kDotOps[] = {"lt", "le", "gt", "ge", "eq",  "ne",
                               "and", "or", "not", "true", "false"};

bool is_dot_op(const std::string& s) {
  for (const char* op : kDotOps)
    if (s == op) return true;
  return false;
}

[[noreturn]] void lex_error(int line, int col, const std::string& msg) {
  throw UserError("lex error at line " + std::to_string(line) + ", column " +
                  std::to_string(col) + ": " + msg);
}

}  // namespace

std::vector<Token> tokenize(std::string_view text, int source_line) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = text.size();
  auto push = [&](TokKind k, std::string t, int col) {
    Token tok;
    tok.kind = k;
    tok.text = std::move(t);
    tok.column = col;
    out.push_back(std::move(tok));
  };

  while (i < n) {
    char c = text[i];
    int col = static_cast<int>(i) + 1;
    if (c == ' ' || c == '\t') {
      ++i;
      continue;
    }
    if (c == '!') break;  // inline comment
    if (is_ident_start(c)) {
      size_t j = i;
      while (j < n && is_ident_char(text[j])) ++j;
      push(TokKind::Ident, to_lower(std::string(text.substr(i, j - i))), col);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      // Integer or real literal.  Careful: "1." followed by "lt." would be
      // a dot-op (e.g. "1.lt.x"); Fortran resolves this by checking whether
      // the characters after '.' form a dot operator.
      size_t j = i;
      while (j < n && std::isdigit(static_cast<unsigned char>(text[j]))) ++j;
      bool is_real = false;
      if (j < n && text[j] == '.') {
        // Peek: is this ".op." ?
        size_t k = j + 1;
        std::string word;
        while (k < n && std::isalpha(static_cast<unsigned char>(text[k])))
          word += static_cast<char>(std::tolower(text[k++]));
        if (!(k < n && text[k] == '.' && is_dot_op(word))) {
          is_real = true;
          ++j;
          while (j < n && std::isdigit(static_cast<unsigned char>(text[j])))
            ++j;
        }
      }
      bool is_double = false;
      if (j < n && (text[j] == 'e' || text[j] == 'E' || text[j] == 'd' ||
                    text[j] == 'D')) {
        size_t k = j + 1;
        if (k < n && (text[k] == '+' || text[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(text[k]))) {
          is_real = true;
          is_double = (text[j] == 'd' || text[j] == 'D');
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(text[j])))
            ++j;
        }
      }
      std::string lit(text.substr(i, j - i));
      Token tok;
      tok.column = col;
      // Checked conversion: a literal with no int64/double value is a
      // positioned UserError, never an escaped std::out_of_range.  Reals
      // that underflow to zero or to a subnormal are rejected as well, so
      // exactly the literals std::stod used to accept are accepted.
      bool in_range = false;
      if (is_real) {
        for (char& ch : lit)
          if (ch == 'd' || ch == 'D') ch = 'e';
        tok.kind = TokKind::RealLit;
        auto [end, ec] = std::from_chars(lit.data(), lit.data() + lit.size(),
                                         tok.real_value);
        in_range = ec == std::errc() &&
                   std::fpclassify(tok.real_value) != FP_SUBNORMAL;
        tok.is_double = is_double;
      } else {
        tok.kind = TokKind::IntLit;
        auto [end, ec] = std::from_chars(lit.data(), lit.data() + lit.size(),
                                         tok.int_value);
        in_range = ec == std::errc();
      }
      if (!in_range)
        lex_error(source_line, col,
                  "numeric literal '" + std::string(text.substr(i, j - i)) +
                      "' is out of range");
      tok.text = lit;
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    if (c == '.') {
      // dot operator or real like ".5"
      size_t k = i + 1;
      std::string word;
      while (k < n && std::isalpha(static_cast<unsigned char>(text[k])))
        word += static_cast<char>(std::tolower(text[k++]));
      if (k < n && text[k] == '.' && is_dot_op(word)) {
        push(TokKind::DotOp, word, col);
        i = k + 1;
        continue;
      }
      lex_error(source_line, col, "unexpected '.'");
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      size_t j = i + 1;
      std::string value;
      while (true) {
        if (j >= n) lex_error(source_line, col, "unterminated string");
        if (text[j] == quote) {
          if (j + 1 < n && text[j + 1] == quote) {  // doubled quote escape
            value += quote;
            j += 2;
            continue;
          }
          break;
        }
        value += text[j++];
      }
      Token tok;
      tok.kind = TokKind::StringLit;
      tok.text = value;
      tok.column = col;
      out.push_back(std::move(tok));
      i = j + 1;
      continue;
    }
    // Punctuation, including two-char forms.
    auto two = [&](const char* s) {
      return i + 1 < n && text[i] == s[0] && text[i + 1] == s[1];
    };
    if (two("**")) { push(TokKind::Punct, "**", col); i += 2; continue; }
    if (two("<=")) { push(TokKind::Punct, "<=", col); i += 2; continue; }
    if (two(">=")) { push(TokKind::Punct, ">=", col); i += 2; continue; }
    if (two("==")) { push(TokKind::Punct, "==", col); i += 2; continue; }
    if (two("/=")) { push(TokKind::Punct, "/=", col); i += 2; continue; }
    if (std::string("()+-*/,=:<>").find(c) != std::string::npos) {
      push(TokKind::Punct, std::string(1, c), col);
      ++i;
      continue;
    }
    lex_error(source_line, col, std::string("unexpected character '") + c + "'");
  }
  Token eol;
  eol.kind = TokKind::EndOfLine;
  eol.column = static_cast<int>(n) + 1;
  out.push_back(std::move(eol));
  return out;
}

std::vector<RawLine> assemble_lines(const std::string& source) {
  std::vector<RawLine> out;
  RawLine pending;  // statement under assembly; empty text when none
  auto flush = [&]() {
    if (!pending.text.empty()) out.push_back(std::move(pending));
    pending = RawLine{};
  };

  const std::string_view src = source;
  int ln = 0;
  for (std::size_t pos = 0; pos <= src.size();) {
    std::size_t nl = src.find('\n', pos);
    if (nl == std::string_view::npos) nl = src.size();
    std::string_view line = src.substr(pos, nl - pos);
    pos = nl + 1;
    ++ln;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    // Fixed-form comment: C/c/*/! in column 1; free-form: first non-blank '!'.
    const std::string_view trimmed = trim_view(line);
    bool comment_col1 =
        !line.empty() && (line[0] == 'C' || line[0] == 'c' || line[0] == '*');
    bool comment_bang = !trimmed.empty() && trimmed[0] == '!';
    if (comment_col1 || comment_bang) {
      // Keep directive comments ("csrd$ ..." or "!$...") verbatim; drop
      // ordinary comments.
      std::string_view body =
          comment_bang ? trim_view(trimmed.substr(1)) : trimmed;
      const std::string low = to_lower(std::string(body));
      if (starts_with(low, "csrd$") || starts_with(low, "$")) {
        flush();
        out.push_back(RawLine{std::string(body), ln, ln, true});
      }
      continue;
    }
    if (trimmed.empty()) continue;

    // Continuation: previous line ended with '&', or this line starts with '&'.
    std::string_view prev = trim_view(pending.text);
    const bool prev_open = !prev.empty() && prev.back() == '&';
    if (!pending.text.empty() && (prev_open || trimmed[0] == '&')) {
      if (prev_open) prev.remove_suffix(1);
      std::string_view cur = trimmed;
      if (cur[0] == '&') cur.remove_prefix(1);
      pending.text = std::string(prev) + ' ' + std::string(cur);
      pending.last_line = ln;
      continue;
    }
    flush();
    pending = RawLine{std::string(line), ln, ln, false};
  }
  flush();
  return out;
}

LabelField find_label(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  const std::size_t begin = i;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])))
    ++i;
  if (i > begin && i < text.size() && (text[i] == ' ' || text[i] == '\t'))
    return {begin, i};
  return {};
}

std::vector<LogicalLine> lex_lines(std::span<const RawLine> lines) {
  std::vector<LogicalLine> out;
  out.reserve(lines.size());
  for (const RawLine& raw : lines) {
    LogicalLine ll;
    ll.source_line = raw.first_line;
    if (raw.is_directive) {
      ll.is_comment = true;
      ll.comment = raw.text;
      ll.tokens.emplace_back();  // EndOfLine
      out.push_back(std::move(ll));
      continue;
    }
    const LabelField label = find_label(raw.text);
    if (label.present()) {
      // Bounded accumulation instead of std::stoi: a hostile digit run
      // ("123456789012345 continue") must surface as a positioned
      // UserError, not escape the frontend as std::out_of_range.  The
      // Fortran 77 bound (labels are 1-99999) is checked after the
      // digits, so "00100" stays legal.
      long value = 0;
      for (std::size_t k = label.begin;
           k < label.end && value <= kMaxStatementLabel; ++k)
        value = value * 10 + (raw.text[k] - '0');
      if (value > kMaxStatementLabel)
        lex_error(raw.first_line, static_cast<int>(label.begin) + 1,
                  "statement label '" +
                      raw.text.substr(label.begin, label.end - label.begin) +
                      "' exceeds the maximum " +
                      std::to_string(kMaxStatementLabel));
      ll.label = static_cast<int>(value);
    }
    ll.tokens = tokenize(std::string_view(raw.text).substr(label.end),
                         raw.first_line);
    if (ll.tokens.size() > 1 || ll.label != 0) out.push_back(std::move(ll));
  }
  return out;
}

std::vector<LogicalLine> lex(const std::string& source) {
  return lex_lines(assemble_lines(source));
}

}  // namespace polaris
