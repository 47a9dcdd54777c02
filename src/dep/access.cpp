#include "dep/access.h"

#include <algorithm>

namespace polaris {

namespace {

void collect_reads(const Expression& e, Statement* stmt,
                   SymbolMap<std::vector<ArrayAccess>>& out) {
  walk(e, [&](const Expression& node) {
    if (node.kind() == ExprKind::ArrayRef) {
      const auto& a = static_cast<const ArrayRef&>(node);
      out[a.symbol()].push_back({&a, stmt, /*is_write=*/false});
    }
  });
}

}  // namespace

SymbolMap<std::vector<ArrayAccess>> collect_array_accesses(
    DoStmt* loop) {
  SymbolMap<std::vector<ArrayAccess>> out;
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() == ExprKind::ArrayRef) {
        const auto& lhs = static_cast<const ArrayRef&>(a->lhs());
        out[lhs.symbol()].push_back({&lhs, s, /*is_write=*/true});
        for (const auto& sub : lhs.subscripts()) collect_reads(*sub, s, out);
      }
      collect_reads(a->rhs(), s, out);
    } else {
      for (const ExprPtr& e : s->expressions()) collect_reads(*e, s, out);
    }
  }
  return out;
}

std::vector<Symbol*> scalars_assigned(DoStmt* loop) {
  std::vector<Symbol*> out;
  auto add = [&](Symbol* s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  };
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() == ExprKind::VarRef) add(a->target());
    } else if (s->kind() == StmtKind::Do) {
      add(static_cast<DoStmt*>(s)->index());
    }
  }
  return out;
}

}  // namespace polaris
