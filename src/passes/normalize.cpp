#include "passes/normalize.h"

#include "analysis/structure.h"
#include "ir/build.h"
#include "symbolic/simplify.h"

namespace polaris {

int normalize_loops(ProgramUnit& unit, const Options& opts,
                    Diagnostics& diags, AnalysisManager& am) {
  if (!opts.loop_normalization) return 0;
  int rewritten = 0;
  for (DoStmt* loop : unit.stmts().loops()) {
    std::int64_t step = 0;
    if (!try_fold_int(loop->step(), &step)) continue;  // symbolic step
    if (step == 1 || step == 0) continue;

    Symbol* index = loop->index();
    Statement* body_first = loop->next();
    Statement* body_last = loop->follow()->prev();
    const bool empty = (body_first == loop->follow());

    // The body must not assign the index, and the bounds' operands must
    // not be modified inside (textual substitution re-evaluates them).
    if (!empty) {
      const SymbolSet& modified =
          am.may_defined_symbols(body_first, body_last);
      if (modified.count(index)) continue;
      SymbolSet bound_syms;
      for (const Expression* e : {&loop->init(), &loop->limit()}) {
        walk(*e, [&](const Expression& n) {
          if (n.kind() == ExprKind::VarRef)
            bound_syms.insert(static_cast<const VarRef&>(n).symbol());
          else if (n.kind() == ExprKind::ArrayRef)
            bound_syms.insert(static_cast<const ArrayRef&>(n).symbol());
        });
      }
      bool clobbered = false;
      for (Symbol* s : bound_syms)
        if (modified.count(s)) clobbered = true;
      if (clobbered) continue;
    }

    ExprPtr lo = loop->init().clone();
    ExprPtr hi = loop->limit().clone();
    const std::string context = unit.name() + "/" + loop->loop_name();

    Symbol* nrm = unit.symtab().fresh(index->name() + "_nrm",
                                      Type::integer());
    // Replacement for the old index: lo + step*nrm.
    ExprPtr value = simplify(*ib::add(
        lo->clone(), ib::mul(ib::ic(step), ib::var(nrm))));

    if (!empty) {
      for (Statement* s = body_first; s != loop->follow(); s = s->next())
        for (ExprPtr& slot : s->expr_slots())
          replace_var(slot, index, *value);
    }

    // Fortran leaves the index at its first out-of-range value; preserve
    // that when the index is live after the loop.
    if (is_live_after(loop, index)) {
      // trips = max((hi - lo + step)/step, 0); final = lo + step*trips.
      ExprPtr trips = ib::div(
          ib::add(ib::sub(hi->clone(), lo->clone()), ib::ic(step)),
          ib::ic(step));
      std::vector<ExprPtr> args;
      args.push_back(std::move(trips));
      args.push_back(ib::ic(0));
      ExprPtr final_value = simplify(*ib::add(
          lo->clone(),
          ib::mul(ib::ic(step),
                  ib::call("max", std::move(args), Type::integer()))));
      std::vector<StmtPtr> frag;
      frag.push_back(std::make_unique<AssignStmt>(ib::var(index),
                                                  std::move(final_value)));
      unit.stmts().splice_after(loop->follow(), std::move(frag));
    }

    // Rewrite the header: do nrm = 0, (hi - lo)/step.
    loop->set_index(nrm);
    loop->init_slot() = ib::ic(0);
    loop->limit_slot() = simplify(
        *ib::div(ib::sub(std::move(hi), std::move(lo)), ib::ic(step)));
    loop->step_slot() = ib::ic(1);
    unit.stmts().revalidate();

    diags.note("normalize", context,
               index->name() + ": step " + std::to_string(step) +
                   " loop normalized (index " + nrm->name() + ")");
    ++rewritten;
    am.invalidate();  // the rewrite stales any cached region facts
  }
  return rewritten;
}

}  // namespace polaris
