#include "passes/strength.h"

#include <map>

#include "analysis/structure.h"
#include "ir/build.h"
#include "symbolic/poly.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

int node_count(const Expression& e) {
  int n = 0;
  walk(e, [&](const Expression&) { ++n; });
  return n;
}

/// A subscript eligible for reduction in loop M: affine in M's index with
/// a constant integer stride, everything else invariant in M.
struct Candidate {
  ExprPtr init_value;  ///< subscript with index := loop init
  ExprPtr stride;      ///< integer constant step contribution
};

std::optional<Candidate> analyze_subscript(const Expression& sub,
                                           DoStmt* loop,
                                           AnalysisManager& am) {
  if (node_count(sub) < 6) return std::nullopt;  // not worth a temp
  Polynomial f = Polynomial::from_expr(sub);
  AtomId k = AtomTable::current().intern_symbol(loop->index());
  if (f.degree_in(k) != 1) return std::nullopt;
  Rational c = f.coefficient(Monomial::atom(k));
  if (c.is_zero()) return std::nullopt;  // composite occurrence (n*k)
  Polynomial rest = f - Polynomial::atom(k) * Polynomial::constant(c);
  if (rest.contains(k)) return std::nullopt;
  // Opaque atoms must not hide the index or anything the loop modifies.
  const SymbolSet& modified =
      am.may_defined_symbols(loop, loop->follow());
  for (AtomId a : f.atoms()) {
    const Expression& ae = AtomTable::current().expr(a);
    if (AtomTable::current().symbol(a) == nullptr) {
      for (Symbol* m : modified)
        if (ae.references(m)) return std::nullopt;
      if (ae.references(loop->index())) return std::nullopt;
    } else if (AtomTable::current().symbol(a) != loop->index() &&
               modified.count(AtomTable::current().symbol(a))) {
      return std::nullopt;  // base varies inside the loop
    }
  }
  std::int64_t step = 0;
  if (!try_fold_int(loop->step(), &step) || step == 0) return std::nullopt;
  Rational stride = c * Rational(step);
  if (!stride.is_integer()) return std::nullopt;

  Candidate cand;
  Polynomial at_init =
      f.substitute(k, Polynomial::from_expr(loop->init()));
  cand.init_value = simplify(*at_init.to_expr());
  cand.stride = ib::ic(stride.as_integer());
  return cand;
}

/// True if `inner` contains no nested DO.
bool is_innermost(StmtList& stmts, DoStmt* inner) {
  return stmts.loops_in(inner).empty();
}

}  // namespace

int strength_reduce(ProgramUnit& unit, const Options& opts,
                    Diagnostics& diags, AnalysisManager& am) {
  if (!opts.strength_reduction) return 0;
  int reduced = 0;
  StmtList& stmts = unit.stmts();

  for (DoStmt* parallel_loop : stmts.loops()) {
    if (!parallel_loop->par.is_parallel) continue;
    // Only the outermost parallel loop of a nest drives execution.
    bool inside_parallel = false;
    for (DoStmt* o = parallel_loop->outer(); o != nullptr; o = o->outer())
      if (o->par.is_parallel) inside_parallel = true;
    if (inside_parallel) continue;

    for (DoStmt* inner : stmts.loops_in(parallel_loop)) {
      if (!is_innermost(stmts, inner)) continue;

      // Collect eligible subscripts, one temp per distinct expression.
      std::map<std::string, Symbol*> temps;
      std::vector<StmtPtr> pre;     // t = init assignments
      std::vector<StmtPtr> post;    // t = t + stride increments
      for (Statement* s = inner->next(); s != inner->follow();
           s = s->next()) {
        for (ExprPtr& slot : s->expr_slots()) {
          walk_slots(slot, [&](ExprPtr& node) {
            if (node->kind() != ExprKind::ArrayRef) return;
            auto& ar = static_cast<ArrayRef&>(*node);
            for (ExprPtr& sub : ar.subscripts()) {
              auto cand = analyze_subscript(*sub, inner, am);
              if (!cand) continue;
              std::string key = sub->to_string();
              Symbol* temp;
              auto it = temps.find(key);
              if (it != temps.end()) {
                temp = it->second;
              } else {
                temp = unit.symtab().fresh("isr", Type::integer());
                temps.emplace(key, temp);
                pre.push_back(std::make_unique<AssignStmt>(
                    ib::var(temp), std::move(cand->init_value)));
                post.push_back(std::make_unique<AssignStmt>(
                    ib::var(temp),
                    ib::add(ib::var(temp), std::move(cand->stride))));
              }
              sub = ib::var(temp);
              ++reduced;
            }
          });
        }
      }
      if (temps.empty()) continue;

      // Increments go at the end of the inner body; initializations just
      // before the inner loop.  (The body has no irregular flow — the
      // enclosing loop is parallel, which already excludes it.)
      Statement* before_follow = inner->follow()->prev();
      p_assert(before_follow != nullptr);
      stmts.splice_after(before_follow, std::move(post));
      stmts.splice_before(inner, std::move(pre));
      am.invalidate();  // spliced temp assignments stale region facts

      // Bookkeeping: the temps are private to every enclosing parallel
      // loop; the inner loop now carries a recurrence, so its own mark
      // (never used for execution here) is dropped.
      for (auto& [key, temp] : temps) {
        for (DoStmt* o = inner; o != nullptr; o = o->outer()) {
          if (o->par.is_parallel || o->par.speculative)
            o->par.private_vars.push_back(temp);
        }
      }
      if (inner->par.is_parallel) {
        inner->par.is_parallel = false;
        inner->par.serial_reason = "strength-reduced (outer loop parallel)";
        inner->par.serial_code = "strength-reduced";
        diags.remark(RemarkKind::Missed, "strength",
                     unit.name() + "/" + inner->loop_name(),
                     "strength-reduced",
                     "serial: strength-reduced (outer loop parallel)",
                     {{"temps", std::to_string(temps.size())}});
      }
      diags.note("strength", unit.name() + "/" + inner->loop_name(),
                 std::to_string(temps.size()) +
                     " induction temporaries introduced");
    }
  }
  return reduced;
}

}  // namespace polaris
