#include "passes/reduction.h"

#include <map>

#include "analysis/structure.h"
#include "ir/build.h"
#include "support/statistic.h"

namespace polaris {

namespace {

POLARIS_STATISTIC("reduction", reductions_recognized,
                  "reduction statements recognized (paper Section 3.2)");
POLARIS_STATISTIC("reduction", histogram_reductions,
                  "recognized reductions with subscripted accumulators");

/// Matches one reduction statement; fills op and returns true.  beta is
/// the non-accumulator operand.
bool match_reduction(AssignStmt* a, ReductionKind* op) {
  Symbol* target = a->target();
  const Expression& lhs = a->lhs();
  const Expression& rhs = a->rhs();

  auto same_location = [&](const Expression& e) {
    return e.equals(lhs);
  };

  if (rhs.kind() == ExprKind::BinOp) {
    const auto& b = static_cast<const BinOp&>(rhs);
    if (b.op() == BinOpKind::Add) {
      if (same_location(b.left()) && !b.right().references(target)) {
        *op = ReductionKind::Sum;
        return true;
      }
      if (same_location(b.right()) && !b.left().references(target)) {
        *op = ReductionKind::Sum;
        return true;
      }
    } else if (b.op() == BinOpKind::Sub) {
      if (same_location(b.left()) && !b.right().references(target)) {
        *op = ReductionKind::Sum;  // A = A - beta accumulates -beta
        return true;
      }
    } else if (b.op() == BinOpKind::Mul) {
      if ((same_location(b.left()) && !b.right().references(target)) ||
          (same_location(b.right()) && !b.left().references(target))) {
        *op = ReductionKind::Product;
        return true;
      }
    }
  } else if (rhs.kind() == ExprKind::FuncCall) {
    const auto& f = static_cast<const FuncCall&>(rhs);
    if ((f.name() == "min" || f.name() == "max") && f.args().size() == 2) {
      const Expression& x = *f.args()[0];
      const Expression& y = *f.args()[1];
      if ((same_location(x) && !y.references(target)) ||
          (same_location(y) && !x.references(target))) {
        *op = f.name() == "min" ? ReductionKind::Min : ReductionKind::Max;
        return true;
      }
    }
  }
  return false;
}

/// The subscripts of the accumulator must not reference the accumulator
/// itself (the paper's alpha_i conditions).
bool subscripts_clean(const AssignStmt* a) {
  if (a->lhs().kind() != ExprKind::ArrayRef) return true;
  Symbol* target =
      static_cast<const ArrayRef&>(a->lhs()).symbol();
  for (const auto& sub :
       static_cast<const ArrayRef&>(a->lhs()).subscripts())
    if (sub->references(target)) return false;
  return true;
}

}  // namespace

std::vector<RecognizedReduction> recognize_reductions(DoStmt* loop,
                                                      const Options& opts,
                                                      Diagnostics& diags,
                                                      AnalysisManager& am) {
  std::vector<RecognizedReduction> out;
  if (!opts.reductions) return out;

  // Phase 1: flag candidates by the shape match_reduction recognizes.
  SymbolMap<RecognizedReduction> candidates;
  SymbolMap<bool> invalid;
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    if (s->kind() != StmtKind::Assign) continue;
    auto* a = static_cast<AssignStmt*>(s);
    ReductionKind op = ReductionKind::None;
    if (!match_reduction(a, &op) || !subscripts_clean(a)) continue;
    Symbol* target = a->target();
    RecognizedReduction& r = candidates[target];
    if (r.var == nullptr) {
      r.var = target;
      r.op = op;
    } else if (r.op != op) {
      invalid[target] = true;  // mixed operators cannot be combined
    }
    if (a->lhs().kind() == ExprKind::ArrayRef) {
      // Histogram when the subscripts vary within the loop (reference a
      // loop index or any variable the loop modifies).
      const auto& lref = static_cast<const ArrayRef&>(a->lhs());
      for (const auto& sub : lref.subscripts())
        if (!am.is_loop_invariant(*sub, loop)) r.histogram = true;
    }
    r.stmts.push_back(a);
    a->reduction_flag = op;
  }

  // Phase 2: validate — A must not be referenced outside its reduction
  // statements within the loop (the paper's side condition).
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    for (const ExprPtr& e : s->expressions()) {
      // Skip the reduction statement's own lhs/rhs occurrences.
      auto it_stmt = [&]() -> RecognizedReduction* {
        if (s->kind() != StmtKind::Assign) return nullptr;
        auto* a = static_cast<AssignStmt*>(s);
        auto found = candidates.find(a->target());
        if (found == candidates.end()) return nullptr;
        for (AssignStmt* rs : found->second.stmts)
          if (rs == a) return &found->second;
        return nullptr;
      }();
      for (auto& [sym, r] : candidates) {
        if (it_stmt != nullptr && it_stmt->var == sym) continue;
        if (e->references(sym)) invalid[sym] = true;
      }
    }
  }

  for (auto& [sym, r] : candidates) {
    if (invalid.count(sym)) {
      for (AssignStmt* a : r.stmts) a->reduction_flag = ReductionKind::None;
      diags.note("reduction", loop->loop_name(),
                 sym->name() + ": candidate invalidated by other uses");
      continue;
    }
    if (r.histogram && !opts.histogram_reductions) {
      for (AssignStmt* a : r.stmts) a->reduction_flag = ReductionKind::None;
      diags.note("reduction", loop->loop_name(),
                 sym->name() + ": histogram reductions disabled");
      continue;
    }
    diags.note("reduction", loop->loop_name(),
               sym->name() + (r.histogram ? ": histogram reduction"
                                          : ": single-address reduction"));
    ++reductions_recognized;
    if (r.histogram) ++histogram_reductions;
    out.push_back(r);
  }
  return out;
}

}  // namespace polaris
