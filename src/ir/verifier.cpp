#include "ir/verifier.h"

#include <map>
#include <set>
#include <sstream>

#include "support/context.h"
#include "support/trace.h"

namespace polaris {

namespace {

const char* kind_name(StmtKind k) {
  switch (k) {
    case StmtKind::Assign: return "assign";
    case StmtKind::Do: return "do";
    case StmtKind::EndDo: return "enddo";
    case StmtKind::If: return "if";
    case StmtKind::ElseIf: return "elseif";
    case StmtKind::Else: return "else";
    case StmtKind::EndIf: return "endif";
    case StmtKind::Goto: return "goto";
    case StmtKind::Continue: return "continue";
    case StmtKind::Call: return "call";
    case StmtKind::Return: return "return";
    case StmtKind::Stop: return "stop";
    case StmtKind::Print: return "print";
    case StmtKind::Comment: return "comment";
  }
  return "?";
}

/// Safe statement identifier for reports; does not print expressions (they
/// may be the corrupt part).
std::string describe(const Statement* s) {
  if (s == nullptr) return "<null>";
  return std::string("stmt#") + std::to_string(s->id()) + "(" +
         kind_name(s->kind()) + ")";
}

class UnitVerifier {
 public:
  UnitVerifier(const ProgramUnit& unit, std::vector<VerifierViolation>& out)
      : unit_(unit), out_(out) {}

  void run() {
    collect_symbols();
    check_symtab();
    if (!check_list_links()) return;  // chain corrupt: later walks unsafe
    check_nesting();
    check_labels();
    check_statements();
    check_formals_and_result();
  }

 private:
  void report(const std::string& rule, const std::string& where,
              const std::string& message) {
    out_.push_back({unit_.name(), rule, where, message});
  }

  void collect_symbols() {
    for (Symbol* s : unit_.symtab().symbols())
      if (s != nullptr) owned_.insert(s);
  }

  void check_symtab() {
    std::set<std::string> names;
    for (Symbol* s : unit_.symtab().symbols()) {
      if (s == nullptr) {
        report("symtab", "<table>", "null symbol in declaration order");
        continue;
      }
      if (!names.insert(s->name()).second)
        report("symtab", s->name(), "duplicate symbol name in table");
      // Symbol-owned expressions must themselves be consistent.
      for (const Dimension& d : s->dims()) {
        if (d.lower) check_expr_tree(d.lower.get(), "dim of " + s->name());
        if (d.upper) check_expr_tree(d.upper.get(), "dim of " + s->name());
      }
      if (s->param_value())
        check_expr_tree(s->param_value(), "parameter " + s->name());
      for (const ExprPtr& v : s->data_values())
        if (v) check_expr_tree(v.get(), "data value of " + s->name());
    }
  }

  /// Walks the prev/next chain checking symmetry, ownership and size.
  /// Returns false when the chain itself is unusable.
  bool check_list_links() {
    const StmtList& list = unit_.stmts();
    const std::size_t limit = list.size() + 2;
    std::size_t n = 0;
    const Statement* prev = nullptr;
    const Statement* last_seen = nullptr;
    for (const Statement* s = list.first(); s != nullptr; s = s->next()) {
      if (++n > limit) {
        report("stmt-links", describe(s),
               "statement chain longer than recorded size (cycle?)");
        return false;
      }
      if (s->prev() != prev)
        report("stmt-links", describe(s),
               "prev link does not point at the preceding statement");
      if (s->list() != &list)
        report("stmt-links", describe(s),
               "statement in list has a foreign or null owner");
      prev = s;
      last_seen = s;
    }
    if (n != list.size())
      report("stmt-links", "<list>",
             "list size " + std::to_string(list.size()) + " but chain has " +
                 std::to_string(n) + " statements");
    if (last_seen != list.last())
      report("stmt-links", describe(list.last()),
             "tail pointer does not match the end of the chain");
    return true;
  }

  /// Re-derives DO/IF nesting and compares the stored cross links.
  void check_nesting() {
    std::vector<const DoStmt*> do_stack;
    std::vector<const Statement*> if_stack;
    for (const Statement* s = unit_.stmts().first(); s != nullptr;
         s = s->next()) {
      const DoStmt* expected_outer =
          do_stack.empty() ? nullptr : do_stack.back();
      switch (s->kind()) {
        case StmtKind::Do:
          do_stack.push_back(static_cast<const DoStmt*>(s));
          break;
        case StmtKind::EndDo: {
          auto* e = static_cast<const EndDoStmt*>(s);
          if (do_stack.empty()) {
            report("do-nest", describe(s), "END DO without matching DO");
            break;
          }
          const DoStmt* d = do_stack.back();
          do_stack.pop_back();
          expected_outer = do_stack.empty() ? nullptr : do_stack.back();
          if (d->follow() != e)
            report("do-nest", describe(d),
                   "DO follow link does not point at its END DO");
          if (e->header() != d)
            report("do-nest", describe(e),
                   "END DO header link does not point at its DO");
          break;
        }
        case StmtKind::If:
          if_stack.push_back(s);
          break;
        case StmtKind::ElseIf:
        case StmtKind::Else: {
          if (if_stack.empty()) {
            report("if-chain", describe(s), "arm outside any IF block");
            break;
          }
          const Statement* arm = if_stack.back();
          const Statement* next_arm =
              arm->kind() == StmtKind::If
                  ? static_cast<const IfStmt*>(arm)->next_arm()
                  : arm->kind() == StmtKind::ElseIf
                        ? static_cast<const ElseIfStmt*>(arm)->next_arm()
                        : nullptr;
          if (arm->kind() == StmtKind::Else)
            report("if-chain", describe(s), "arm after ELSE");
          else if (next_arm != s)
            report("if-chain", describe(arm),
                   "arm chain does not link to " + describe(s));
          if_stack.back() = s;
          break;
        }
        case StmtKind::EndIf: {
          if (if_stack.empty()) {
            report("if-chain", describe(s), "END IF without matching IF");
            break;
          }
          auto* endif = static_cast<const EndIfStmt*>(s);
          const Statement* arm = if_stack.back();
          if_stack.pop_back();
          const EndIfStmt* linked =
              arm->kind() == StmtKind::If
                  ? static_cast<const IfStmt*>(arm)->end()
                  : arm->kind() == StmtKind::ElseIf
                        ? static_cast<const ElseIfStmt*>(arm)->end()
                        : static_cast<const ElseStmt*>(arm)->end();
          if (linked != endif)
            report("if-chain", describe(arm),
                   "end link does not point at " + describe(endif));
          break;
        }
        default:
          break;
      }
      if (s->outer() != expected_outer)
        report("do-nest", describe(s),
               "outer link disagrees with derived nesting (have " +
                   describe(s->outer()) + ", expected " +
                   describe(expected_outer) + ")");
    }
    for (const DoStmt* d : do_stack)
      report("do-nest", describe(d), "DO without matching END DO");
    for (const Statement* a : if_stack)
      report("if-chain", describe(a), "IF without matching END IF");
  }

  void check_labels() {
    const StmtList& list = unit_.stmts();
    std::map<int, const Statement*> labels;
    for (const Statement* s = list.first(); s != nullptr; s = s->next()) {
      if (s->label() == 0) continue;
      auto [it, fresh] = labels.emplace(s->label(), s);
      if (!fresh)
        report("label", describe(s),
               "duplicate label " + std::to_string(s->label()) +
                   " (also on " + describe(it->second) + ")");
      if (list.find_label(s->label()) != s)
        report("label", describe(s),
               "label map is stale for label " + std::to_string(s->label()));
    }
    // The reverse direction: every map entry must point at a statement that
    // actually carries that label (a bogus entry would silently redirect
    // GOTO resolution).
    for (const auto& [label, target] : list.label_map()) {
      if (target == nullptr || target->label() != label)
        report("label", "label " + std::to_string(label),
               "label map entry does not match any labeled statement");
    }
    for (const Statement* s = list.first(); s != nullptr; s = s->next()) {
      if (s->kind() != StmtKind::Goto) continue;
      int target = static_cast<const GotoStmt*>(s)->target();
      if (labels.find(target) == labels.end())
        report("unresolved-label", describe(s),
               "GOTO target " + std::to_string(target) +
                   " does not label any statement");
    }
  }

  void check_statements() {
    for (const Statement* s = unit_.stmts().first(); s != nullptr;
         s = s->next()) {
      for (const ExprPtr& e : s->expressions())
        check_expr_tree(e.get(), describe(s));

      if (s->kind() == StmtKind::Assign) {
        const auto* a = static_cast<const AssignStmt*>(s);
        ExprKind lk = a->lhs().kind();
        if (lk != ExprKind::VarRef && lk != ExprKind::ArrayRef)
          report("bad-lhs", describe(s),
                 "assignment target is neither a variable nor an array "
                 "element");
      } else if (s->kind() == StmtKind::Do) {
        const auto* d = static_cast<const DoStmt*>(s);
        check_symbol(d->index(), describe(s), "DO index");
        check_parallel_info(d);
      }
    }
  }

  void check_parallel_info(const DoStmt* d) {
    const ParallelInfo& par = d->par;
    for (Symbol* s : par.private_vars)
      check_symbol(s, describe(d), "private variable");
    for (Symbol* s : par.lastvalue_vars)
      check_symbol(s, describe(d), "lastvalue variable");
    for (Symbol* s : par.speculative_arrays)
      check_symbol(s, describe(d), "speculative array");
    for (const ReductionInfo& r : par.reductions)
      check_symbol(r.var, describe(d), "reduction variable");
  }

  void check_formals_and_result() {
    for (Symbol* f : unit_.formals())
      check_symbol(f, "<formals>", "formal parameter");
    if (unit_.result() != nullptr)
      check_symbol(unit_.result(), "<result>", "function result");
  }

  void check_symbol(const Symbol* sym, const std::string& where,
                    const std::string& role) {
    if (sym == nullptr) {
      report("dangling-symbol", where, role + " is null");
      return;
    }
    if (owned_.count(sym) == 0)
      report("dangling-symbol", where,
             role + " '" + sym->name() +
                 "' is not in this unit's symbol table");
  }

  /// Iterative walk: membership of every referenced symbol, no node
  /// shared between two slots, cycle-guarded.
  void check_expr_tree(const Expression* root, const std::string& where) {
    if (root == nullptr) {
      report("expr-tree", where, "null expression slot");
      return;
    }
    std::set<const Expression*> on_path;  // cycle detection for this tree
    std::vector<const Expression*> stack{root};
    std::size_t nodes = 0;
    while (!stack.empty()) {
      const Expression* e = stack.back();
      stack.pop_back();
      if (e == nullptr) {
        report("expr-tree", where, "null child in expression tree");
        continue;
      }
      if (++nodes > kMaxExprNodes) {
        report("expr-tree", where,
               "expression tree exceeds node limit (cycle?)");
        return;
      }
      if (!on_path.insert(e).second) {
        report("aliased-expression", where,
               "expression node reachable twice within one tree (cycle or "
               "internal sharing)");
        return;
      }
      if (!seen_nodes_.insert(e).second) {
        report("aliased-expression", where,
               "expression node shared between two statements/slots");
        return;
      }
      switch (e->kind()) {
        case ExprKind::VarRef:
          check_symbol(static_cast<const VarRef*>(e)->symbol(), where,
                       "variable reference");
          break;
        case ExprKind::ArrayRef: {
          const auto* a = static_cast<const ArrayRef*>(e);
          check_symbol(a->symbol(), where, "array reference");
          if (a->symbol() != nullptr && owned_.count(a->symbol()) &&
              a->symbol()->is_array() && a->rank() != a->symbol()->rank())
            report("rank-mismatch", where,
                   "reference to '" + a->symbol()->name() + "' has " +
                       std::to_string(a->rank()) + " subscripts, declared "
                       "rank " + std::to_string(a->symbol()->rank()));
          break;
        }
        default:
          break;
      }
      for (const ExprPtr& c : e->children()) stack.push_back(c.get());
    }
  }

  static constexpr std::size_t kMaxExprNodes = 1u << 20;

  const ProgramUnit& unit_;
  std::vector<VerifierViolation>& out_;
  std::set<const Symbol*> owned_;
  std::set<const Expression*> seen_nodes_;  ///< across the whole unit
};

}  // namespace

std::vector<VerifierViolation> verify_unit(const ProgramUnit& unit) {
  return verify_unit(unit, nullptr);
}

std::vector<VerifierViolation> verify_unit(const ProgramUnit& unit,
                                           CompileContext* cc) {
  trace::TraceSpan span(cc != nullptr ? &cc->trace() : nullptr,
                        "verify-unit", "verifier");
  span.arg("unit", unit.name());
  std::vector<VerifierViolation> out;
  UnitVerifier(unit, out).run();
  span.arg("violations", static_cast<std::uint64_t>(out.size()));
  return out;
}

std::vector<VerifierViolation> verify_program(const Program& program) {
  return verify_program(program, nullptr);
}

std::vector<VerifierViolation> verify_program(const Program& program,
                                              CompileContext* cc) {
  trace::TraceSpan span(cc != nullptr ? &cc->trace() : nullptr,
                        "verify-program", "verifier");
  std::vector<VerifierViolation> out;
  std::set<std::string> names;
  int mains = 0;
  for (const auto& unit : program.units()) {
    if (unit == nullptr) {
      out.push_back({"<program>", "unit", "<null>", "null program unit"});
      continue;
    }
    if (!names.insert(unit->name()).second)
      out.push_back({unit->name(), "unit", "<program>",
                     "duplicate program unit name"});
    if (unit->kind() == UnitKind::Program) ++mains;
    UnitVerifier(*unit, out).run();
  }
  if (mains != 1)
    out.push_back({"<program>", "unit", "<program>",
                   "program has " + std::to_string(mains) +
                       " main units, expected exactly 1"});
  return out;
}

std::string format_violations(const std::vector<VerifierViolation>& vs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) os << '\n';
    os << vs[i].unit << ": [" << vs[i].rule << "] " << vs[i].where << ": "
       << vs[i].message;
  }
  return os.str();
}

}  // namespace polaris
