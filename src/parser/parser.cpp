#include "parser/parser.h"

#include <limits>
#include <map>
#include <optional>
#include <set>

#include <exception>

#include "ir/build.h"
#include "parser/lexer.h"
#include "parser/splitter.h"
#include "support/context.h"
#include "support/trace.h"
#include "support/string_util.h"

namespace polaris {

namespace {

// --- intrinsics ---------------------------------------------------------------

const std::map<std::string, std::string>& intrinsic_aliases() {
  static const std::map<std::string, std::string> aliases = {
      {"iabs", "abs"},   {"dabs", "abs"},   {"cabs", "abs"},
      {"amax1", "max"},  {"max0", "max"},   {"dmax1", "max"},
      {"amin1", "min"},  {"min0", "min"},   {"dmin1", "min"},
      {"dsqrt", "sqrt"}, {"dexp", "exp"},   {"alog", "log"},
      {"dlog", "log"},   {"dcos", "cos"},   {"dsin", "sin"},
      {"dtan", "tan"},   {"datan", "atan"}, {"datan2", "atan2"},
      {"dmod", "mod"},   {"amod", "mod"},   {"idint", "int"},
      {"ifix", "int"},   {"float", "real"}, {"dfloat", "dble"},
      {"isign", "sign"}, {"dsign", "sign"}, {"idnint", "nint"},
  };
  return aliases;
}

const std::set<std::string>& intrinsic_names() {
  static const std::set<std::string> names = {
      "abs", "max",  "min",  "mod",  "sqrt", "exp",  "log",   "log10",
      "sin", "cos",  "tan",  "atan", "atan2", "sign", "int",  "nint",
      "real", "dble", "iand", "ior",  "ieor",
  };
  return names;
}

Type intrinsic_result_type(const std::string& name,
                           const std::vector<ExprPtr>& args) {
  auto promote_args = [&]() {
    Type t = Type::integer();
    for (const auto& a : args) t = Type::promote(t, a->type());
    return t;
  };
  if (name == "int" || name == "nint" || name == "iand" || name == "ior" ||
      name == "ieor")
    return Type::integer();
  if (name == "real") return Type::real();
  if (name == "dble") return Type::double_precision();
  if (name == "abs" || name == "max" || name == "min" || name == "mod" ||
      name == "sign")
    return promote_args();
  // Transcendentals: at least real.
  Type t = promote_args();
  return t.is_integer() ? Type::real() : t;
}

Type implicit_type(const std::string& name) {
  p_assert(!name.empty());
  char c = name[0];
  return (c >= 'i' && c <= 'n') ? Type::integer() : Type::real();
}

// --- token cursor -------------------------------------------------------------

/// Cursor over one logical line's tokens.
class Cursor {
 public:
  Cursor(const std::vector<Token>& toks, int line)
      : toks_(toks), line_(line) {}

  const Token& peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& next() {
    const Token& t = peek();
    if (pos_ < toks_.size() - 1) ++pos_;
    return t;
  }
  bool at_end() const { return peek().kind == TokKind::EndOfLine; }

  bool is_punct(const std::string& p, int ahead = 0) const {
    return peek(ahead).kind == TokKind::Punct && peek(ahead).text == p;
  }
  bool is_ident(const std::string& name, int ahead = 0) const {
    return peek(ahead).kind == TokKind::Ident && peek(ahead).text == name;
  }
  bool accept_punct(const std::string& p) {
    if (!is_punct(p)) return false;
    next();
    return true;
  }
  bool accept_ident(const std::string& name) {
    if (!is_ident(name)) return false;
    next();
    return true;
  }
  void expect_punct(const std::string& p) {
    if (!accept_punct(p)) error("expected '" + p + "'");
  }
  std::string expect_ident() {
    if (peek().kind != TokKind::Ident) error("expected identifier");
    return next().text;
  }
  void expect_end() {
    if (!at_end()) error("unexpected trailing tokens ('" + peek().text + "')");
  }

  [[noreturn]] void error(const std::string& msg) const {
    throw UserError("parse error at line " + std::to_string(line_) + ": " +
                    msg);
  }

  int line() const { return line_; }

 private:
  const std::vector<Token>& toks_;
  int line_;
  size_t pos_ = 0;
};

// --- the parser ------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<LogicalLine> lines) : lines_(std::move(lines)) {}

  std::unique_ptr<Program> parse() {
    auto program = std::make_unique<Program>();
    while (pos_ < lines_.size()) {
      program->add_unit(parse_unit());
    }
    return program;
  }

 private:
  // --- unit-level parsing -----------------------------------------------------

  std::unique_ptr<ProgramUnit> parse_unit() {
    const LogicalLine& first = lines_[pos_];
    p_assert(!first.is_comment || first.tokens.size() == 1);
    Cursor c(first.tokens, first.source_line);

    std::unique_ptr<ProgramUnit> unit;
    if (c.is_ident("program")) {
      c.next();
      unit = std::make_unique<ProgramUnit>(UnitKind::Program,
                                           c.expect_ident());
      c.expect_end();
      ++pos_;
    } else if (c.is_ident("subroutine")) {
      c.next();
      unit = std::make_unique<ProgramUnit>(UnitKind::Subroutine,
                                           c.expect_ident());
      parse_formals(c, *unit);
      c.expect_end();
      ++pos_;
    } else if (is_function_header(c)) {
      unit = parse_function_header(c);
      ++pos_;
    } else {
      // Implicit "program main" wrapping bare statements.
      unit = std::make_unique<ProgramUnit>(UnitKind::Program, "main");
    }

    unit_ = unit.get();
    in_decls_ = true;
    implicit_none_ = false;
    labeled_do_stack_.clear();
    pending_.clear();
    pending_directive_.reset();

    bool ended = false;
    while (pos_ < lines_.size()) {
      const LogicalLine& ll = lines_[pos_];
      if (ll.is_comment) {
        // "csrd$ [speculative] doall ..." directives re-attach the
        // parallelization annotations to the following DO (so Polaris
        // output is executable as-is); other comments are kept verbatim.
        std::string low = to_lower(ll.comment);
        if (starts_with(low, "csrd$") &&
            low.find("doall") != std::string::npos) {
          pending_directive_ = low;
        } else {
          pending_.push_back(std::make_unique<CommentStmt>(ll.comment));
        }
        ++pos_;
        continue;
      }
      Cursor cur(ll.tokens, ll.source_line);
      if (cur.is_ident("end") && cur.peek(1).kind == TokKind::EndOfLine) {
        ++pos_;
        ended = true;
        break;
      }
      if (ll.label == 0 && in_decls_ && try_parse_declaration(cur)) {
        ++pos_;
        continue;
      }
      in_decls_ = false;
      parse_statement(cur, ll.label);
      ++pos_;
    }
    if (!ended && unit_->kind() != UnitKind::Program)
      throw UserError("missing END for unit " + unit_->name());
    if (!labeled_do_stack_.empty())
      throw UserError("unterminated labeled DO in " + unit_->name());
    // Statements were assembled in a detached fragment (the paper's
    // List<Statement> idiom); consistency is checked at incorporation.
    unit_->stmts().splice_back(std::move(pending_));
    pending_.clear();
    unit_ = nullptr;
    return unit;
  }

  bool is_function_header(Cursor& c) const {
    if (c.is_ident("function")) return true;
    // "real function f(...)", "integer function ...", "double precision
    // function ..."
    if (c.is_ident("integer") || c.is_ident("real") || c.is_ident("logical"))
      return c.is_ident("function", 1);
    if (c.is_ident("double") && c.is_ident("precision", 1))
      return c.is_ident("function", 2);
    return false;
  }

  std::unique_ptr<ProgramUnit> parse_function_header(Cursor& c) {
    Type t;  // none => implicit
    if (c.accept_ident("integer")) t = Type::integer();
    else if (c.accept_ident("real")) t = Type::real();
    else if (c.accept_ident("logical")) t = Type::logical();
    else if (c.accept_ident("double")) {
      if (!c.accept_ident("precision")) c.error("expected 'precision'");
      t = Type::double_precision();
    }
    if (!c.accept_ident("function")) c.error("expected 'function'");
    std::string name = c.expect_ident();
    auto unit = std::make_unique<ProgramUnit>(UnitKind::Function, name);
    if (t.kind() == TypeKind::None) t = implicit_type(name);
    Symbol* result = unit->symtab().declare(name, t, SymbolKind::Variable);
    unit->set_result(result);
    parse_formals(c, *unit);
    c.expect_end();
    return unit;
  }

  void parse_formals(Cursor& c, ProgramUnit& unit) {
    if (!c.accept_punct("(")) return;
    if (c.accept_punct(")")) return;
    while (true) {
      std::string name = c.expect_ident();
      Symbol* s = unit.symtab().declare(name, implicit_type(name),
                                        SymbolKind::Variable);
      unit.add_formal(s);
      if (c.accept_punct(")")) break;
      c.expect_punct(",");
    }
  }

  // --- declarations ---------------------------------------------------------

  bool try_parse_declaration(Cursor& c) {
    if (c.peek().kind != TokKind::Ident) return false;
    const std::string& kw = c.peek().text;
    if (kw == "integer" || kw == "real" || kw == "logical" ||
        kw == "double") {
      // Distinguish a declaration from an assignment to a variable with a
      // keyword-like name: declarations are followed by an identifier (or
      // *len) rather than '='.
      if (c.is_punct("=", 1)) return false;
      parse_type_decl(c);
      return true;
    }
    if (kw == "dimension" && !c.is_punct("=", 1)) {
      c.next();
      parse_decl_items(c, Type(), /*dimension_only=*/true);
      return true;
    }
    if (kw == "parameter" && c.is_punct("(", 1)) {
      c.next();
      parse_parameter(c);
      return true;
    }
    if (kw == "common" && !c.is_punct("=", 1)) {
      c.next();
      parse_common(c);
      return true;
    }
    if (kw == "data" && !c.is_punct("=", 1)) {
      c.next();
      parse_data(c);
      return true;
    }
    if (kw == "implicit") {
      c.next();
      if (c.accept_ident("none")) {
        implicit_none_ = true;
        c.expect_end();
        return true;
      }
      c.error("only IMPLICIT NONE is supported");
    }
    if (kw == "save" || kw == "external" || kw == "intrinsic") {
      return true;  // accepted and ignored (whole line)
    }
    return false;
  }

  void parse_type_decl(Cursor& c) {
    Type t;
    if (c.accept_ident("integer")) t = Type::integer();
    else if (c.accept_ident("logical")) t = Type::logical();
    else if (c.accept_ident("real")) {
      t = Type::real();
      if (c.accept_punct("*")) {
        const Token& len = c.next();
        if (len.kind != TokKind::IntLit) c.error("expected length after '*'");
        if (len.int_value == 8) t = Type::double_precision();
      }
    } else if (c.accept_ident("double")) {
      if (!c.accept_ident("precision")) c.error("expected 'precision'");
      t = Type::double_precision();
    } else {
      c.error("expected type keyword");
    }
    parse_decl_items(c, t, /*dimension_only=*/false);
  }

  void parse_decl_items(Cursor& c, Type t, bool dimension_only) {
    while (true) {
      std::string name = c.expect_ident();
      Symbol* s = unit_->symtab().lookup(name);
      if (s == nullptr) {
        Type st = dimension_only ? implicit_type(name) : t;
        s = unit_->symtab().declare(name, st, SymbolKind::Variable);
      } else if (!dimension_only) {
        s->set_type(t);
      }
      if (c.is_punct("(")) {
        std::vector<Dimension> dims = parse_dims(c);
        p_assert_msg(!s->is_array() || s->dims().empty(),
                     "array redimensioned: " + name);
        s->set_dims(std::move(dims));
      }
      if (c.at_end()) break;
      c.expect_punct(",");
    }
  }

  std::vector<Dimension> parse_dims(Cursor& c) {
    c.expect_punct("(");
    std::vector<Dimension> dims;
    while (true) {
      if (c.is_punct("*")) {
        c.next();
        dims.emplace_back(nullptr, nullptr);  // assumed size
      } else {
        ExprPtr first = parse_expr(c);
        if (c.accept_punct(":")) {
          if (c.is_punct("*")) {
            c.next();
            dims.emplace_back(std::move(first), nullptr);
          } else {
            ExprPtr upper = parse_expr(c);
            dims.emplace_back(std::move(first), std::move(upper));
          }
        } else {
          dims.emplace_back(nullptr, std::move(first));
        }
      }
      if (c.accept_punct(")")) break;
      c.expect_punct(",");
    }
    if (dims.size() > kMaxArrayRank)
      c.error("array declared with " + std::to_string(dims.size()) +
              " dimensions (Fortran 77 allows at most " +
              std::to_string(kMaxArrayRank) + ")");
    return dims;
  }

  void parse_parameter(Cursor& c) {
    c.expect_punct("(");
    while (true) {
      std::string name = c.expect_ident();
      c.expect_punct("=");
      ExprPtr value = parse_expr(c);
      Symbol* s = unit_->symtab().lookup(name);
      if (s == nullptr)
        s = unit_->symtab().declare(name, implicit_type(name),
                                    SymbolKind::Parameter);
      else
        s->set_kind(SymbolKind::Parameter);
      s->set_param_value(std::move(value));
      if (c.accept_punct(")")) break;
      c.expect_punct(",");
    }
    c.expect_end();
  }

  void parse_common(Cursor& c) {
    c.expect_punct("/");
    std::string block = c.expect_ident();
    c.expect_punct("/");
    while (true) {
      std::string name = c.expect_ident();
      Symbol* s = unit_->symtab().get_or_declare(name, implicit_type(name));
      s->set_common_block(block);
      if (c.is_punct("(")) {
        std::vector<Dimension> dims = parse_dims(c);
        s->set_dims(std::move(dims));
      }
      if (c.at_end()) break;
      c.expect_punct(",");
    }
  }

  void parse_data(Cursor& c) {
    // data v1, v2, ... / val1, r*val2, ... /
    std::vector<Symbol*> vars;
    while (true) {
      std::string name = c.expect_ident();
      Symbol* s = unit_->symtab().lookup(name);
      if (s == nullptr) c.error("DATA for undeclared variable " + name);
      vars.push_back(s);
      if (c.is_punct("/")) break;
      c.expect_punct(",");
    }
    c.expect_punct("/");
    // r*value runs, kept uncloned until the counts below bound them.
    std::vector<std::pair<std::int64_t, ExprPtr>> runs;
    while (true) {
      std::int64_t repeat = 1;
      if (c.peek().kind == TokKind::IntLit && c.is_punct("*", 1)) {
        repeat = c.next().int_value;
        c.next();  // '*'
        if (repeat < 1)
          c.error("DATA repeat count " + std::to_string(repeat) +
                  " is not positive");
      }
      // DATA values are (signed) constants or named constants — never
      // general expressions, or the closing '/' would parse as division.
      runs.emplace_back(repeat, parse_data_value(c));
      if (c.accept_punct("/")) break;
      c.expect_punct(",");
    }
    c.expect_end();
    // Every run must fit in the elements the list still needs, checked
    // before any run is cloned: a hostile repeat allocates nothing.
    std::vector<std::int64_t> counts;
    std::int64_t needed = 0;
    for (Symbol* s : vars) {
      counts.push_back(s->is_array() ? element_count(*s, c) : 1);
      if (__builtin_add_overflow(needed, counts.back(), &needed))
        needed = std::numeric_limits<std::int64_t>::max();
    }
    for (const auto& [repeat, value] : runs) {
      if (repeat > needed) c.error("DATA: surplus values");
      needed -= repeat;
    }
    // Distribute values across the listed variables in order.
    std::size_t run = 0;
    std::int64_t taken = 0;  // values of runs[run] already distributed
    for (std::size_t vi = 0; vi < vars.size(); ++vi) {
      for (std::int64_t k = 0; k < counts[vi]; ++k) {
        if (run == runs.size())
          c.error("DATA: not enough values for " + vars[vi]->name());
        auto& [repeat, value] = runs[run];
        if (++taken < repeat) {
          vars[vi]->add_data_value(value->clone());
        } else {
          vars[vi]->add_data_value(std::move(value));
          ++run;
          taken = 0;
        }
      }
    }
  }

  /// One DATA value: [+|-] literal | named-constant | .true./.false.
  ExprPtr parse_data_value(Cursor& c) {
    bool negate = false;
    if (c.accept_punct("-")) negate = true;
    else c.accept_punct("+");
    ExprPtr v;
    const Token& t = c.peek();
    if (t.kind == TokKind::IntLit) {
      c.next();
      v = ib::ic(t.int_value);
    } else if (t.kind == TokKind::RealLit) {
      c.next();
      v = ib::rc(t.real_value, t.is_double);
    } else if (t.kind == TokKind::DotOp &&
               (t.text == "true" || t.text == "false")) {
      c.next();
      v = ib::lc(t.text == "true");
    } else if (t.kind == TokKind::Ident) {
      std::string name = c.next().text;
      Symbol* s = unit_->symtab().lookup(name);
      if (s == nullptr || s->kind() != SymbolKind::Parameter)
        c.error("DATA value must be a constant, got '" + name + "'");
      v = ib::var(s);
    } else {
      c.error("expected a constant in DATA");
    }
    return negate ? ib::neg(std::move(v)) : std::move(v);
  }

  /// Statically-evaluated element count of an array (dims must fold to
  /// constants through PARAMETER symbols); a positioned error when it is
  /// empty or past int64.
  std::int64_t element_count(const Symbol& s, Cursor& c) {
    std::int64_t total = 1;
    for (const Dimension& d : s.dims()) {
      std::optional<std::int64_t> lo =
          d.lower ? fold_int(*d.lower) : std::optional<std::int64_t>(1);
      if (!d.upper) c.error("DATA for assumed-size array " + s.name());
      std::optional<std::int64_t> hi = fold_int(*d.upper);
      if (!lo || !hi) c.error("DATA needs constant bounds for " + s.name());
      // The interpreter's checks, positioned: an empty extent, or an
      // element count with no int64 value.
      if (*hi < *lo)
        c.error("array " + s.name() + " has an empty dimension " +
                std::to_string(*lo) + ":" + std::to_string(*hi));
      std::int64_t extent = 0;
      if (__builtin_sub_overflow(*hi, *lo, &extent) ||
          __builtin_add_overflow(extent, 1, &extent) ||
          __builtin_mul_overflow(total, extent, &total))
        c.error("array " + s.name() + " has too many elements");
    }
    return total;
  }

  /// Folds an expression of integer literals and integer PARAMETERs.
  static std::optional<std::int64_t> fold_int(const Expression& e) {
    switch (e.kind()) {
      case ExprKind::IntConst:
        return static_cast<const IntConst&>(e).value();
      case ExprKind::VarRef: {
        const Symbol* s = static_cast<const VarRef&>(e).symbol();
        if (s->kind() == SymbolKind::Parameter && s->param_value())
          return fold_int(*s->param_value());
        return std::nullopt;
      }
      case ExprKind::UnOp: {
        const auto& u = static_cast<const UnOp&>(e);
        if (u.op() != UnOpKind::Neg) return std::nullopt;
        auto v = fold_int(u.operand());
        return v ? std::optional<std::int64_t>(-*v) : std::nullopt;
      }
      case ExprKind::BinOp: {
        const auto& b = static_cast<const BinOp&>(e);
        auto l = fold_int(b.left());
        auto r = fold_int(b.right());
        if (!l || !r) return std::nullopt;
        switch (b.op()) {
          case BinOpKind::Add: return *l + *r;
          case BinOpKind::Sub: return *l - *r;
          case BinOpKind::Mul: return *l * *r;
          case BinOpKind::Div: return *r == 0 ? std::nullopt
                                              : std::optional<std::int64_t>(*l / *r);
          default: return std::nullopt;
        }
      }
      default:
        return std::nullopt;
    }
  }

  // --- executable statements ----------------------------------------------------

  void parse_statement(Cursor& c, int label) {
    Statement* stmt = parse_one_statement(c, label);
    (void)stmt;
    close_labeled_dos(label);
  }

  Statement* parse_one_statement(Cursor& c, int label) {
    if (c.peek().kind != TokKind::Ident)
      c.error("expected a statement");
    const std::string kw = c.peek().text;

    // Assignment?  ident ( '=' | '(' ... ')' '=' )
    if (is_assignment(c)) return parse_assignment(c, label);

    if (kw == "do") return parse_do(c, label);
    if (kw == "enddo" ||
        (kw == "end" && c.is_ident("do", 1)))
      return parse_enddo(c, label);
    if (kw == "if") return parse_if(c, label);
    if (kw == "elseif" || (kw == "else" && c.is_ident("if", 1)))
      return parse_elseif(c, label);
    if (kw == "else") {
      c.next();
      c.expect_end();
      return add(std::make_unique<ElseStmt>(), label);
    }
    if (kw == "endif" || (kw == "end" && c.is_ident("if", 1))) {
      c.next();
      if (c.is_ident("if")) c.next();
      c.expect_end();
      return add(std::make_unique<EndIfStmt>(), label);
    }
    if (kw == "goto" || (kw == "go" && c.is_ident("to", 1))) {
      c.next();
      if (c.is_ident("to")) c.next();
      const Token& t = c.next();
      if (t.kind != TokKind::IntLit) c.error("expected label after GOTO");
      c.expect_end();
      return add(std::make_unique<GotoStmt>(static_cast<int>(t.int_value)),
                 label);
    }
    if (kw == "continue") {
      c.next();
      c.expect_end();
      return add(std::make_unique<ContinueStmt>(), label);
    }
    if (kw == "call") return parse_call(c, label);
    if (kw == "return") {
      c.next();
      c.expect_end();
      return add(std::make_unique<ReturnStmt>(), label);
    }
    if (kw == "stop") {
      c.next();
      if (!c.at_end()) c.next();  // optional stop code, ignored
      c.expect_end();
      return add(std::make_unique<StopStmt>(), label);
    }
    if (kw == "print") return parse_print(c, label);
    if (kw == "write") return parse_write(c, label);

    c.error("unsupported or unrecognized statement '" + kw + "'");
  }

  bool is_assignment(Cursor& c) {
    if (c.peek().kind != TokKind::Ident) return false;
    if (c.is_punct("=", 1)) return true;
    if (!c.is_punct("(", 1)) return false;
    // Scan for ')' at depth 0 followed by '='.
    int depth = 0;
    for (int i = 1;; ++i) {
      const Token& t = c.peek(i);
      if (t.kind == TokKind::EndOfLine) return false;
      if (t.kind == TokKind::Punct) {
        if (t.text == "(") ++depth;
        else if (t.text == ")") {
          --depth;
          if (depth == 0) return c.is_punct("=", i + 1);
        }
      }
    }
  }

  Statement* parse_assignment(Cursor& c, int label) {
    ExprPtr lhs = parse_primary(c, /*lvalue=*/true);
    c.expect_punct("=");
    ExprPtr rhs = parse_expr(c);
    c.expect_end();
    return add(std::make_unique<AssignStmt>(std::move(lhs), std::move(rhs)),
               label);
  }

  Statement* parse_do(Cursor& c, int label) {
    c.next();  // 'do'
    int terminal_label = 0;
    if (c.peek().kind == TokKind::IntLit) {
      terminal_label = static_cast<int>(c.next().int_value);
    }
    std::string index_name = c.expect_ident();
    Symbol* index = resolve_scalar(index_name, c);
    c.expect_punct("=");
    ExprPtr init = parse_expr(c);
    c.expect_punct(",");
    ExprPtr limit = parse_expr(c);
    ExprPtr step;
    if (c.accept_punct(",")) step = parse_expr(c);
    c.expect_end();
    auto stmt = std::make_unique<DoStmt>(index, std::move(init),
                                         std::move(limit), std::move(step));
    if (pending_directive_) {
      apply_doall_directive(*stmt, *pending_directive_, c);
      pending_directive_.reset();
    }
    Statement* raw = add(std::move(stmt), label);
    if (terminal_label != 0) labeled_do_stack_.push_back(terminal_label);
    return raw;
  }

  Statement* parse_enddo(Cursor& c, int label) {
    c.next();
    if (c.is_ident("do")) c.next();
    c.expect_end();
    return add(std::make_unique<EndDoStmt>(), label);
  }

  Statement* parse_if(Cursor& c, int label) {
    c.next();  // 'if'
    c.expect_punct("(");
    ExprPtr cond = parse_expr(c);
    c.expect_punct(")");
    if (c.accept_ident("then")) {
      c.expect_end();
      return add(std::make_unique<IfStmt>(std::move(cond)), label);
    }
    // Logical IF: desugar to a one-statement block IF.
    Statement* ifs = add(std::make_unique<IfStmt>(std::move(cond)), label);
    parse_one_statement(c, 0);
    add(std::make_unique<EndIfStmt>(), 0);
    return ifs;
  }

  Statement* parse_elseif(Cursor& c, int label) {
    c.next();
    if (c.is_ident("if")) c.next();
    c.expect_punct("(");
    ExprPtr cond = parse_expr(c);
    c.expect_punct(")");
    if (!c.accept_ident("then")) c.error("expected THEN");
    c.expect_end();
    return add(std::make_unique<ElseIfStmt>(std::move(cond)), label);
  }

  Statement* parse_call(Cursor& c, int label) {
    c.next();  // 'call'
    std::string name = c.expect_ident();
    std::vector<ExprPtr> args;
    if (c.accept_punct("(")) {
      if (!c.accept_punct(")")) {
        while (true) {
          args.push_back(parse_expr(c));
          if (c.accept_punct(")")) break;
          c.expect_punct(",");
        }
      }
    }
    c.expect_end();
    return add(std::make_unique<CallStmt>(name, std::move(args)), label);
  }

  Statement* parse_print(Cursor& c, int label) {
    c.next();  // 'print'
    c.expect_punct("*");
    std::vector<ExprPtr> items;
    while (c.accept_punct(",")) items.push_back(parse_expr(c));
    c.expect_end();
    return add(std::make_unique<PrintStmt>(std::move(items)), label);
  }

  Statement* parse_write(Cursor& c, int label) {
    c.next();  // 'write'
    c.expect_punct("(");
    c.expect_punct("*");
    c.expect_punct(",");
    c.expect_punct("*");
    c.expect_punct(")");
    std::vector<ExprPtr> items;
    if (!c.at_end()) {
      items.push_back(parse_expr(c));
      while (c.accept_punct(",")) items.push_back(parse_expr(c));
    }
    c.expect_end();
    return add(std::make_unique<PrintStmt>(std::move(items)), label);
  }

  /// Parses "csrd$ [speculative] doall private(..) reduction(op:v[,histogram])
  /// lastvalue(..) shadow(..)" and fills the DO's ParallelInfo.
  void apply_doall_directive(DoStmt& d, const std::string& text, Cursor& c) {
    d.par = ParallelInfo{};
    const bool speculative = text.find("speculative") != std::string::npos;
    d.par.is_parallel = !speculative;
    d.par.speculative = speculative;

    auto names_in = [&](const std::string& clause,
                        std::vector<Symbol*>* out) {
      size_t pos = text.find(clause + "(");
      while (pos != std::string::npos) {
        size_t open = pos + clause.size() + 1;
        size_t close = text.find(')', open);
        if (close == std::string::npos) c.error("malformed doall directive");
        for (const std::string& piece :
             split(text.substr(open, close - open), ',')) {
          std::string name = trim(piece);
          if (name.empty() || name == "histogram") continue;
          out->push_back(resolve_scalar(name, c));
        }
        pos = text.find(clause + "(", close);
      }
    };
    names_in("private", &d.par.private_vars);
    names_in("lastvalue", &d.par.lastvalue_vars);
    names_in("shadow", &d.par.speculative_arrays);

    size_t rpos = text.find("reduction(");
    while (rpos != std::string::npos) {
      size_t open = rpos + 10;
      size_t close = text.find(')', open);
      if (close == std::string::npos) c.error("malformed doall directive");
      std::string body = text.substr(open, close - open);
      size_t colon = body.find(':');
      if (colon == std::string::npos) c.error("malformed reduction clause");
      std::string op = trim(body.substr(0, colon));
      std::string rest = body.substr(colon + 1);
      ReductionInfo info;
      if (op == "+") info.op = ReductionKind::Sum;
      else if (op == "*") info.op = ReductionKind::Product;
      else if (op == "min") info.op = ReductionKind::Min;
      else if (op == "max") info.op = ReductionKind::Max;
      else c.error("unknown reduction operator '" + op + "'");
      auto pieces = split(rest, ',');
      info.var = resolve_scalar(trim(pieces[0]), c);
      info.histogram = rest.find("histogram") != std::string::npos;
      d.par.reductions.push_back(info);
      rpos = text.find("reduction(", close);
    }

    // Re-attaching annotations also requires re-flagging reduction
    // statements, which happens lazily: the execution engine only needs
    // the ParallelInfo, and the reduction statements' flags are used for
    // Blocked-scheme cost accounting (approximated as zero on re-parse).
  }

  Statement* add(StmtPtr s, int label) {
    s->set_label(label);
    Statement* raw = s.get();
    pending_.push_back(std::move(s));
    return raw;
  }

  /// Closes classic labeled DO loops whose terminal statement carries
  /// `label` (several DOs may share one terminal label).
  void close_labeled_dos(int label) {
    if (label == 0) return;
    while (!labeled_do_stack_.empty() && labeled_do_stack_.back() == label) {
      labeled_do_stack_.pop_back();
      add(std::make_unique<EndDoStmt>(), 0);
    }
  }

  // --- expressions --------------------------------------------------------------

  Symbol* resolve_scalar(const std::string& name, Cursor& c) {
    Symbol* s = unit_->symtab().lookup(name);
    if (s == nullptr) {
      if (implicit_none_)
        c.error("undeclared variable '" + name + "' under IMPLICIT NONE");
      s = unit_->symtab().declare(name, implicit_type(name),
                                  SymbolKind::Variable);
    }
    return s;
  }

  ExprPtr parse_expr(Cursor& c) { return parse_or(c); }

  ExprPtr parse_or(Cursor& c) {
    ExprPtr e = parse_and(c);
    while (c.peek().kind == TokKind::DotOp && c.peek().text == "or") {
      c.next();
      e = ib::lor(std::move(e), parse_and(c));
    }
    return e;
  }

  ExprPtr parse_and(Cursor& c) {
    ExprPtr e = parse_not(c);
    while (c.peek().kind == TokKind::DotOp && c.peek().text == "and") {
      c.next();
      e = ib::land(std::move(e), parse_not(c));
    }
    return e;
  }

  ExprPtr parse_not(Cursor& c) {
    if (c.peek().kind == TokKind::DotOp && c.peek().text == "not") {
      c.next();
      return ib::lnot(parse_not(c));
    }
    return parse_rel(c);
  }

  ExprPtr parse_rel(Cursor& c) {
    ExprPtr e = parse_arith(c);
    std::optional<BinOpKind> op;
    const Token& t = c.peek();
    if (t.kind == TokKind::DotOp) {
      if (t.text == "lt") op = BinOpKind::Lt;
      else if (t.text == "le") op = BinOpKind::Le;
      else if (t.text == "gt") op = BinOpKind::Gt;
      else if (t.text == "ge") op = BinOpKind::Ge;
      else if (t.text == "eq") op = BinOpKind::Eq;
      else if (t.text == "ne") op = BinOpKind::Ne;
    } else if (t.kind == TokKind::Punct) {
      if (t.text == "<") op = BinOpKind::Lt;
      else if (t.text == "<=") op = BinOpKind::Le;
      else if (t.text == ">") op = BinOpKind::Gt;
      else if (t.text == ">=") op = BinOpKind::Ge;
      else if (t.text == "==") op = BinOpKind::Eq;
      else if (t.text == "/=") op = BinOpKind::Ne;
    }
    if (!op) return e;
    c.next();
    return ib::bin(*op, std::move(e), parse_arith(c));
  }

  ExprPtr parse_arith(Cursor& c) {
    // Leading sign.
    bool negate = false;
    if (c.is_punct("-")) {
      c.next();
      negate = true;
    } else if (c.is_punct("+")) {
      c.next();
    }
    ExprPtr e = parse_term(c);
    if (negate) e = ib::neg(std::move(e));
    while (c.is_punct("+") || c.is_punct("-")) {
      bool plus = c.next().text == "+";
      ExprPtr rhs = parse_term(c);
      e = plus ? ib::add(std::move(e), std::move(rhs))
               : ib::sub(std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr parse_term(Cursor& c) {
    ExprPtr e = parse_power(c);
    while (c.is_punct("*") || c.is_punct("/")) {
      bool times = c.next().text == "*";
      ExprPtr rhs = parse_power(c);
      e = times ? ib::mul(std::move(e), std::move(rhs))
                : ib::div(std::move(e), std::move(rhs));
    }
    return e;
  }

  ExprPtr parse_power(Cursor& c) {
    ExprPtr base = parse_unary(c);
    if (c.is_punct("**")) {
      c.next();
      // '**' is right-associative in Fortran.
      ExprPtr exp = parse_power(c);
      return ib::pow(std::move(base), std::move(exp));
    }
    return base;
  }

  ExprPtr parse_unary(Cursor& c) {
    if (c.is_punct("-")) {
      c.next();
      return ib::neg(parse_unary(c));
    }
    if (c.is_punct("+")) {
      c.next();
      return parse_unary(c);
    }
    return parse_primary(c, /*lvalue=*/false);
  }

  ExprPtr parse_primary(Cursor& c, bool lvalue) {
    const Token& t = c.peek();
    switch (t.kind) {
      case TokKind::IntLit:
        c.next();
        return ib::ic(t.int_value);
      case TokKind::RealLit:
        c.next();
        return ib::rc(t.real_value, t.is_double);
      case TokKind::StringLit:
        c.next();
        return std::make_unique<StringConst>(t.text);
      case TokKind::DotOp:
        if (t.text == "true") {
          c.next();
          return ib::lc(true);
        }
        if (t.text == "false") {
          c.next();
          return ib::lc(false);
        }
        c.error("unexpected operator '." + t.text + ".'");
      case TokKind::Punct:
        if (t.text == "(") {
          c.next();
          ExprPtr e = parse_expr(c);
          c.expect_punct(")");
          return e;
        }
        c.error("unexpected '" + t.text + "'");
      case TokKind::Ident:
        break;
      case TokKind::EndOfLine:
        c.error("unexpected end of statement");
    }
    std::string name = c.next().text;
    if (!c.is_punct("(")) {
      Symbol* s = resolve_scalar(name, c);
      return ib::var(s);
    }
    // name(...) — array element, intrinsic, or user function call.
    Symbol* s = unit_->symtab().lookup(name);
    bool is_array = s != nullptr && s->is_array();
    if (is_array || lvalue) {
      if (!is_array && lvalue)
        c.error("assignment to undeclared array or function '" + name + "'");
      c.expect_punct("(");
      std::vector<ExprPtr> subs;
      while (true) {
        subs.push_back(parse_expr(c));
        if (c.accept_punct(")")) break;
        c.expect_punct(",");
      }
      if (static_cast<int>(subs.size()) != s->rank())
        c.error("rank mismatch in reference to " + name);
      return ib::aref(s, std::move(subs));
    }
    // Function call.
    c.expect_punct("(");
    std::vector<ExprPtr> args;
    if (!c.accept_punct(")")) {
      while (true) {
        args.push_back(parse_expr(c));
        if (c.accept_punct(")")) break;
        c.expect_punct(",");
      }
    }
    std::string canon = canonical_intrinsic(name);
    if (intrinsic_names().count(canon)) {
      Type rt = intrinsic_result_type(canon, args);
      return ib::call(canon, std::move(args), rt);
    }
    // User function: result type from an explicit declaration if present,
    // else implicit.
    Type rt = (s != nullptr) ? s->type() : implicit_type(name);
    return ib::call(name, std::move(args), rt);
  }

  std::vector<LogicalLine> lines_;
  size_t pos_ = 0;
  ProgramUnit* unit_ = nullptr;
  bool in_decls_ = true;
  bool implicit_none_ = false;
  std::vector<int> labeled_do_stack_;
  std::vector<StmtPtr> pending_;
  std::optional<std::string> pending_directive_;
};

}  // namespace

bool is_intrinsic_name(const std::string& name) {
  std::string canon = canonical_intrinsic(name);
  return intrinsic_names().count(canon) > 0;
}

std::string canonical_intrinsic(const std::string& name) {
  std::string low = to_lower(name);
  auto it = intrinsic_aliases().find(low);
  return it == intrinsic_aliases().end() ? low : it->second;
}

std::unique_ptr<Program> parse_program(const std::string& source,
                                       CompileContext* cc, int jobs) {
  trace::TraceSpan parse_span(cc != nullptr ? &cc->trace() : nullptr,
                              "parse", "driver");
  // Robustness boundary: malformed input must always surface as UserError
  // (exit 1), never as InternalError (exit 3) — a p_assert tripped by a
  // degenerate source is a parser bug from the compiler's point of view,
  // but from the user's it is still just bad input.
  try {
    // Assemble the logical lines once, split them into per-unit slices
    // and lex and parse each slice independently — on the compilation's
    // worker pool when jobs allow, inline otherwise.  Every slice is
    // parsed at every jobs count (no early exit on the first bad slice):
    // the set of parse-unit spans and per-slice outcomes must not depend
    // on scheduling.
    const std::vector<std::vector<RawLine>> slices = split_units(source);

    struct Fragment {
      std::unique_ptr<Program> program;
      trace::TraceCollector trace;  ///< shard collector, parent's epoch
      std::exception_ptr error;     ///< per-slice failure, slice stays poisoned
    };
    std::vector<Fragment> frags(slices.size());
    if (cc != nullptr)
      for (Fragment& f : frags) f.trace.start_shard_of(cc->trace());

    auto parse_slice = [&](std::size_t i) {
      Fragment& frag = frags[i];
      try {
        trace::TraceSpan unit_span(&frag.trace, "parse-unit", "driver");
        unit_span.arg("slice", static_cast<std::uint64_t>(i));
        Parser p(lex_lines(slices[i]));
        frag.program = p.parse();
        if (!frag.program->units().empty())
          unit_span.arg("unit", frag.program->units().front()->name());
      } catch (...) {
        frag.error = std::current_exception();
      }
    };

    if (jobs > 1 && cc != nullptr && slices.size() > 1)
      cc->pool().run(slices.size(), jobs, parse_slice);
    else
      for (std::size_t i = 0; i < slices.size(); ++i) parse_slice(i);

    // Merge in textual slice order: trace shards first (one timeline, one
    // deterministic event order), then the textually-first error if any
    // slice failed, then the unit fragments themselves.
    if (cc != nullptr)
      for (Fragment& f : frags) cc->trace().append(std::move(f.trace));
    for (Fragment& f : frags)
      if (f.error) std::rethrow_exception(f.error);

    auto program = std::make_unique<Program>();
    for (Fragment& f : frags) program->merge(std::move(*f.program));

    // Worker scheduling interleaves allocations from the global id
    // counters arbitrarily, and prior compilations in this process
    // advance them — renumbering makes every id a pure function of the
    // source text (see Program::renumber_ids; the inliner repeats it
    // after splicing statement clones).
    program->renumber_ids();

    parse_span.arg("units",
                   static_cast<std::uint64_t>(program->units().size()));
    return program;
  } catch (const InternalError& e) {
    throw UserError(std::string("malformed source (parser invariant '") +
                    e.condition() + "' failed at " + e.file() + ":" +
                    std::to_string(e.line()) + ")");
  }
}

ExprPtr parse_expression(const std::string& text, SymbolTable& symtab) {
  // Reuse the statement machinery: parse "xpolaris_expr_tmp = <text>" as
  // a synthetic one-line program, steal the expression, and remap its
  // symbols into `symtab` by name.
  std::string synthetic = "xpolaris_expr_tmp = " + text + "\nend\n";
  Parser p(lex(synthetic));
  std::unique_ptr<Program> prog = p.parse();
  ProgramUnit* unit = prog->main();
  p_assert(unit->stmts().first() != nullptr);
  auto* assign = static_cast<AssignStmt*>(unit->stmts().first());
  p_assert(assign->kind() == StmtKind::Assign);
  ExprPtr result = assign->rhs_slot() ? std::move(assign->rhs_slot()) : nullptr;
  p_assert(result != nullptr);

  // Remap symbols into the caller's table by name.
  std::function<void(Expression&)> remap = [&](Expression& e) {
    if (e.kind() == ExprKind::VarRef) {
      auto& v = static_cast<VarRef&>(e);
      Symbol* s = symtab.lookup(v.symbol()->name());
      if (!s)
        s = symtab.declare(v.symbol()->name(), v.symbol()->type(),
                           SymbolKind::Variable);
      v.set_symbol(s);
    } else if (e.kind() == ExprKind::ArrayRef) {
      auto& a = static_cast<ArrayRef&>(e);
      Symbol* s = symtab.lookup(a.symbol()->name());
      if (!s)
        s = symtab.declare(a.symbol()->name(), a.symbol()->type(),
                           SymbolKind::Variable);
      a.set_symbol(s);
    }
    for (ExprPtr& slot : e.children()) remap(*slot);
  };
  remap(*result);
  return result;
}

}  // namespace polaris
