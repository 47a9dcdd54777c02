#include "analysis/purity.h"

#include "parser/parser.h"

namespace polaris {

namespace {

/// Collects the names of user functions called anywhere in the unit.
std::set<std::string> called_functions(const ProgramUnit& unit) {
  std::set<std::string> out;
  for (Statement* s : unit.stmts()) {
    for (const ExprPtr& e : s->expressions()) {
      walk(*e, [&](const Expression& n) {
        if (n.kind() == ExprKind::FuncCall) {
          const auto& f = static_cast<const FuncCall&>(n);
          if (!is_intrinsic_name(f.name())) out.insert(f.name());
        }
      });
    }
  }
  return out;
}

/// Purity of one unit assuming every function in `assumed` is pure.
bool unit_pure(const ProgramUnit& unit,
               const std::set<std::string>& assumed) {
  if (unit.kind() != UnitKind::Function) return false;
  for (Symbol* sym : unit.symtab().symbols())
    if (sym->in_common()) return false;  // no global state at all
  for (Statement* s : unit.stmts()) {
    switch (s->kind()) {
      case StmtKind::Assign: {
        auto* a = static_cast<const AssignStmt*>(s);
        Symbol* t = a->target();
        if (t->is_formal()) return false;  // writes escape via reference
        break;
      }
      case StmtKind::Call:
      case StmtKind::Print:
      case StmtKind::Stop:
        return false;  // subroutine side effects / I/O / termination
      default:
        break;
    }
  }
  for (const std::string& callee : called_functions(unit))
    if (!assumed.count(callee)) return false;
  return true;
}

}  // namespace

std::set<std::string> pure_functions(const Program& program) {
  // Optimistic fixed point: start with every function assumed pure, then
  // strike out violators until stable (handles mutual recursion soundly —
  // a function is pure only if everything it reaches is).
  std::set<std::string> pure;
  for (const auto& unit : program.units())
    if (unit->kind() == UnitKind::Function) pure.insert(unit->name());

  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& unit : program.units()) {
      if (unit->kind() != UnitKind::Function) continue;
      if (!pure.count(unit->name())) continue;
      if (!unit_pure(*unit, pure)) {
        pure.erase(unit->name());
        changed = true;
      }
    }
  }
  return pure;
}

bool has_impure_calls(Statement* first, Statement* last,
                      const std::set<std::string>& pure,
                      const SymbolSet& written_arrays) {
  Statement* stop = last ? last->next() : nullptr;
  for (Statement* s = first; s != stop; s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Call) return true;  // subroutines: by-ref
    for (const ExprPtr& e : s->expressions()) {
      bool impure = e->contains([&](const Expression& n) {
        if (n.kind() != ExprKind::FuncCall) return false;
        const auto& f = static_cast<const FuncCall&>(n);
        if (!is_intrinsic_name(f.name()) && !pure.count(f.name()))
          return true;
        // Whole-array actual of an array the region writes: the callee's
        // element reads are invisible to the dependence tests.
        for (const ExprPtr& arg : f.args()) {
          if (arg->kind() == ExprKind::VarRef) {
            Symbol* sym = static_cast<const VarRef&>(*arg).symbol();
            if (sym->is_array() && written_arrays.count(sym)) return true;
          }
        }
        return false;
      });
      if (impure) return true;
    }
  }
  return false;
}

}  // namespace polaris
