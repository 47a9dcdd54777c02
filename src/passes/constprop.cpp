#include "passes/constprop.h"

#include "symbolic/simplify.h"

namespace polaris {

int propagate_constants(ProgramUnit& unit) {
  int changed = 0;
  for (Statement* s : unit.stmts()) {
    for (ExprPtr& slot : s->expr_slots()) {
      ExprPtr simplified = simplify(*slot);
      if (!simplified->equals(*slot)) ++changed;
      slot = std::move(simplified);
    }
  }
  unit.stmts().revalidate();
  return changed;
}

}  // namespace polaris
