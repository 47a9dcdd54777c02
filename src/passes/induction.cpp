#include "passes/induction.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/analysis_manager.h"
#include "analysis/structure.h"
#include "ir/build.h"
#include "symbolic/poly.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

/// One recognized increment statement: K = K + inc.
struct IncrementSite {
  AssignStmt* stmt = nullptr;
  Symbol* var = nullptr;
  ExprPtr inc;  ///< owned copy of the increment expression
};

using Env = SymbolMap<Polynomial>;

/// Matches K = K + inc / K = inc + K / K = K - inc; returns the increment
/// or null.
ExprPtr match_increment(AssignStmt* a) {
  if (a->lhs().kind() != ExprKind::VarRef) return nullptr;
  Symbol* k = a->target();
  if (!k->type().is_integer()) return nullptr;
  if (a->rhs().kind() != ExprKind::BinOp) return nullptr;
  const auto& b = static_cast<const BinOp&>(a->rhs());
  auto is_k = [&](const Expression& e) {
    return e.kind() == ExprKind::VarRef &&
           static_cast<const VarRef&>(e).symbol() == k;
  };
  if (b.op() == BinOpKind::Add) {
    if (is_k(b.left()) && !b.right().references(k)) return b.right().clone();
    if (is_k(b.right()) && !b.left().references(k)) return b.left().clone();
  } else if (b.op() == BinOpKind::Sub) {
    if (is_k(b.left()) && !b.right().references(k))
      return ib::neg(b.right().clone());
  }
  return nullptr;
}

/// Matches K = K*c / K = c*K with c free of K; returns c or null.
ExprPtr match_scale(AssignStmt* a) {
  if (a->lhs().kind() != ExprKind::VarRef) return nullptr;
  Symbol* k = a->target();
  if (a->rhs().kind() != ExprKind::BinOp) return nullptr;
  const auto& b = static_cast<const BinOp&>(a->rhs());
  if (b.op() != BinOpKind::Mul) return nullptr;
  auto is_k = [&](const Expression& e) {
    return e.kind() == ExprKind::VarRef &&
           static_cast<const VarRef&>(e).symbol() == k;
  };
  if (is_k(b.left()) && !b.right().references(k)) return b.right().clone();
  if (is_k(b.right()) && !b.left().references(k)) return b.left().clone();
  return nullptr;
}

/// True if `s` lies under an IF (between nest start and s there is an
/// unclosed IF) — conditional increments are rejected.
bool under_if(DoStmt* nest, Statement* s) {
  int depth = 0;
  for (Statement* cur = nest->next(); cur != s; cur = cur->next()) {
    p_assert(cur != nullptr);
    if (cur->kind() == StmtKind::If) ++depth;
    else if (cur->kind() == StmtKind::EndIf) --depth;
  }
  return depth > 0;
}

AtomId atom_of(Symbol* s) { return AtomTable::current().intern_symbol(s); }

/// Evaluates an expression as a polynomial, substituting each candidate's
/// current value from `env`.
Polynomial eval_with_env(const Expression& e, const Env& env) {
  Polynomial p = Polynomial::from_expr(e);
  for (const auto& [sym, value] : env)
    p = p.substitute(atom_of(sym), value);
  return p;
}

class NestSolver {
 public:
  NestSolver(StmtList& stmts, DoStmt* nest, Diagnostics& diags,
             const std::string& context, AnalysisManager& am)
      : stmts_(stmts), nest_(nest), diags_(diags), context_(context),
        am_(am) {}

  /// Collects candidates; returns false if none.
  bool collect(bool allow_cascaded, bool allow_triangular);
  /// Performs substitution; returns number substituted.
  int run();

 private:
  /// Total increment of each candidate over one execution of [first,last)
  /// given entry values `env` (which is advanced to the exit values).
  /// Loop bounds inside are evaluated with the env at their entry.
  bool advance(Statement* first, Statement* last, Env& env);

  /// Per-iteration solution of an inner loop: env advances across the
  /// whole loop; `iter_env` receives values at the top of iteration x.
  bool solve_loop(DoStmt* loop, Env& env, Env* iter_env);

  /// Substitution walk: rewrites uses, deletes increment statements.
  bool substitute(Statement* first, Statement* last, Env env);

  bool is_candidate(Symbol* s) const {
    return std::find(order_.begin(), order_.end(), s) != order_.end();
  }

  StmtList& stmts_;
  DoStmt* nest_;
  Diagnostics& diags_;
  std::string context_;
  AnalysisManager& am_;
  std::vector<Symbol*> order_;  ///< candidates in cascade-topological order
  std::vector<IncrementSite> sites_;
  std::vector<Statement*> to_delete_;

 public:
  int rejected_count_ = 0;
};

bool NestSolver::collect(bool allow_cascaded, bool allow_triangular) {
  // Gather increment statements and all defs per scalar.
  SymbolMap<std::vector<IncrementSite>> incs;
  SymbolMap<int> other_defs;
  for (Statement* s = nest_->next(); s != nest_->follow(); s = s->next()) {
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() != ExprKind::VarRef) continue;
      ExprPtr inc = match_increment(a);
      if (inc) {
        incs[a->target()].push_back({a, a->target(), std::move(inc)});
      } else {
        ++other_defs[a->target()];
      }
    } else if (s->kind() == StmtKind::Do) {
      ++other_defs[static_cast<DoStmt*>(s)->index()];
    } else if (s->kind() == StmtKind::Call) {
      auto* c = static_cast<CallStmt*>(s);
      for (const ExprPtr& arg : c->args()) {
        walk(*arg, [&](const Expression& n) {
          if (n.kind() == ExprKind::VarRef)
            ++other_defs[static_cast<const VarRef&>(n).symbol()];
        });
      }
    }
  }
  // Loop indices of the nest (including the nest root) are not candidates.
  SymbolSet indices;
  indices.insert(nest_->index());
  for (DoStmt* d : stmts_.loops_in(nest_)) indices.insert(d->index());

  // Symbols the nest may modify (for invariance checks on increments).
  const SymbolSet& modified =
      am_.may_defined_symbols(nest_, nest_->follow());

  SymbolMap<std::vector<Symbol*>> cascades;  // K -> referenced cands
  std::vector<Symbol*> candidates;
  for (auto& [k, sites] : incs) {
    if (other_defs.count(k) || indices.count(k)) {
      ++rejected_count_;
      continue;
    }
    bool ok = true;
    std::vector<Symbol*> refs;
    for (const IncrementSite& site : sites) {
      if (under_if(nest_, site.stmt)) {
        diags_.note("induction", context_,
                    k->name() + ": conditional increment, rejected");
        ok = false;
        break;
      }
      // Loops enclosing the increment must have constant step 1 (within
      // the nest); without triangular support (the 1996-compiler model)
      // their bounds must also be independent of outer loop indices.
      for (DoStmt* d = site.stmt->outer(); d != nullptr; d = d->outer()) {
        std::int64_t step = 0;
        if (!try_fold_int(d->step(), &step) || step != 1) {
          diags_.note("induction", context_,
                      k->name() + ": non-unit step loop, rejected");
          ok = false;
        }
        if (!allow_triangular && ok) {
          for (DoStmt* outer = d->outer(); outer != nullptr;
               outer = outer->outer()) {
            if (d->init().references(outer->index()) ||
                d->limit().references(outer->index())) {
              diags_.note("induction", context_,
                          k->name() + ": triangular nest unsupported");
              ok = false;
            }
            if (outer == nest_) break;
          }
        }
        if (d == nest_ || !ok) break;
      }
      if (!ok) break;
      // Increment terms: loop indices, invariants, other candidates.
      bool bad_ref = false;
      walk(*site.inc, [&](const Expression& n) {
        if (n.kind() == ExprKind::VarRef) {
          Symbol* s = static_cast<const VarRef&>(n).symbol();
          if (incs.count(s) && !other_defs.count(s)) {
            refs.push_back(s);
          } else if (modified.count(s) && !indices.count(s)) {
            bad_ref = true;
          }
        } else if (n.kind() == ExprKind::ArrayRef) {
          bad_ref = true;  // array values are not symbolically tractable
        } else if (n.kind() == ExprKind::FuncCall) {
          bad_ref = true;
        }
      });
      if (!bad_ref) {
        // The summation machinery is polynomial: an increment whose
        // canonical form hides a loop index or candidate inside an opaque
        // atom (e.g. 2**i) cannot be summed and must be rejected.
        Polynomial p = Polynomial::from_expr(*site.inc);
        for (AtomId a : p.atoms()) {
          if (AtomTable::current().symbol(a) != nullptr) continue;
          const Expression& ae = AtomTable::current().expr(a);
          for (Symbol* idx : indices)
            if (ae.references(idx)) bad_ref = true;
          for (const auto& [cand, cand_sites] : incs)
            if (ae.references(cand)) bad_ref = true;
        }
      }
      if (bad_ref) {
        diags_.note("induction", context_,
                    k->name() + ": increment not invariant, rejected");
        ok = false;
        break;
      }
    }
    if (!ok) {
      ++rejected_count_;
      continue;
    }
    if (!allow_cascaded && !refs.empty()) {
      diags_.note("induction", context_,
                  k->name() + ": cascaded induction disabled, rejected");
      ++rejected_count_;
      continue;
    }
    candidates.push_back(k);
    cascades[k] = refs;
  }

  // Topological sort of cascades (reject cycles).
  std::vector<Symbol*> order;
  SymbolSet done, visiting;
  std::function<bool(Symbol*)> visit = [&](Symbol* k) {
    if (done.count(k)) return true;
    if (visiting.count(k)) return false;  // cycle
    visiting.insert(k);
    for (Symbol* r : cascades[k]) {
      if (std::find(candidates.begin(), candidates.end(), r) ==
          candidates.end())
        return false;  // cascade onto a rejected candidate
      if (!visit(r)) return false;
    }
    visiting.erase(k);
    done.insert(k);
    order.push_back(k);
    return true;
  };
  for (Symbol* k : candidates) {
    if (!visit(k)) {
      diags_.note("induction", context_,
                  k->name() + ": cyclic or invalid cascade, rejected");
      ++rejected_count_;
      // Remove k and anything depending on it by simply bailing out of
      // this candidate; already-ordered ones stay.
    }
  }
  order_ = std::move(order);

  for (auto& [k, sites] : incs) {
    if (!is_candidate(k)) continue;
    for (IncrementSite& site : sites) sites_.push_back(std::move(site));
  }
  return !order_.empty();
}

bool NestSolver::advance(Statement* first, Statement* last, Env& env) {
  for (Statement* s = first; s != last;) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() == ExprKind::VarRef && is_candidate(a->target())) {
        ExprPtr inc = match_increment(a);
        p_assert(inc != nullptr);
        env[a->target()] = env[a->target()] + eval_with_env(*inc, env);
      }
      s = s->next();
    } else if (s->kind() == StmtKind::Do) {
      auto* d = static_cast<DoStmt*>(s);
      if (!solve_loop(d, env, nullptr)) return false;
      s = d->follow()->next();
    } else {
      s = s->next();
    }
  }
  return true;
}

bool NestSolver::solve_loop(DoStmt* loop, Env& env, Env* iter_env) {
  // Bounds at loop entry (candidates substituted by entry values).
  Polynomial init = eval_with_env(loop->init(), env);
  Polynomial limit = eval_with_env(loop->limit(), env);
  AtomId x = atom_of(loop->index());

  // Per-iteration deltas, resolved in cascade order: for candidate K, run
  // a trial advance of the body with iteration-entry values env_iter and
  // measure K's increment as a function of x.
  Env env_iter = env;  // values at top of iteration x
  Env sums;            // S_K(x) = sum_{t=init}^{x-1} d_K(t)
  for (Symbol* k : order_) {
    Env trial = env_iter;
    if (!advance(loop->body_first(), loop->follow(), trial)) return false;
    Polynomial delta = trial[k] - env_iter[k];
    if (delta.contains(x) && delta.degree_in(x) > 6) return false;
    // S_K(x) = sum over t in [init, x-1] of delta(t).
    Polynomial upper = Polynomial::atom(x) - Polynomial::constant(1);
    Polynomial sk = delta.contains(x)
                        ? delta.sum_over(x, init, upper)
                        : delta * (Polynomial::atom(x) - init);
    sums[k] = sk;
    env_iter[k] = env[k] + sk;
  }
  if (iter_env) *iter_env = env_iter;
  // Exit values: S_K(limit + 1).
  for (Symbol* k : order_) {
    Polynomial total =
        sums[k].substitute(x, limit + Polynomial::constant(1));
    env[k] = env[k] + total;
  }
  return true;
}

bool NestSolver::substitute(Statement* first, Statement* last, Env env) {
  // Rewrites each of a statement's slots in closed form under `env`.
  auto close_slots = [&](Statement* st) {
    for (ExprPtr& slot : st->expr_slots()) {
      for (Symbol* k : order_) {
        ExprPtr closed = env[k].to_expr();
        replace_var(slot, k, *closed);
      }
      simplify_in_place(slot);
    }
  };
  for (Statement* s = first; s != last;) {
    p_assert(s != nullptr);
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() == ExprKind::VarRef && is_candidate(a->target())) {
        env[a->target()] =
            env[a->target()] +
            eval_with_env(*match_increment(a), env);
        to_delete_.push_back(s);
        s = s->next();
        continue;
      }
      close_slots(s);
      s = s->next();
    } else if (s->kind() == StmtKind::Do) {
      auto* d = static_cast<DoStmt*>(s);
      // Bounds are evaluated at loop entry: substitute with entry env.
      close_slots(d);
      Env iter_env;
      Env env_after = env;
      if (!solve_loop(d, env_after, &iter_env)) return false;
      if (!substitute(d->body_first(), d->follow(), iter_env)) return false;
      env = std::move(env_after);
      s = d->follow()->next();
    } else {
      close_slots(s);
      s = s->next();
    }
  }
  return true;
}

int NestSolver::run() {
  // Entry values: the variables' own pre-nest values, kept symbolic.
  Env env;
  for (Symbol* k : order_) env[k] = Polynomial::symbol(k);

  // Solve the whole nest once: iter_env holds values at the top of each
  // outermost iteration, exit_env the values after the nest.
  Env iter_env;
  Env exit_env = env;
  if (!solve_loop(nest_, exit_env, &iter_env)) {
    diags_.note("induction", context_, "closed form not computable");
    return 0;
  }
  if (!substitute(nest_->body_first(), nest_->follow(), iter_env)) return 0;

  // Last values for live-out candidates.
  for (Symbol* k : order_) {
    if (is_live_after(nest_, k)) {
      ExprPtr closed = simplify(*exit_env[k].to_expr());
      std::vector<StmtPtr> frag;
      frag.push_back(
          std::make_unique<AssignStmt>(ib::var(k), std::move(closed)));
      stmts_.splice_after(nest_->follow(), std::move(frag));
    }
  }

  // Delete the recurrence statements.
  for (Statement* s : to_delete_) stmts_.remove(s);

  for (Symbol* k : order_)
    diags_.note("induction", context_, k->name() + ": substituted");
  return static_cast<int>(order_.size());
}

/// Multiplicative (geometric) inductions, paper Section 3.2 / [13]:
/// K = K*c recurrences with a single loop-invariant factor c are rewritten
/// through a fresh unit counter:
///     kc = 0  (before the nest)
///     K = K*c          ->  kc = kc + 1
///     ...K... (in nest) ->  ...K*c**kc...
///     after nest, K live:  K = K*c**kc
/// The counter is an ordinary additive induction the main solver then
/// substitutes, yielding closed forms like K0 * c**((i-1)*m + j).
int rewrite_multiplicative(ProgramUnit& unit, DoStmt* nest,
                           Diagnostics& diags, const std::string& context,
                           AnalysisManager& am) {
  StmtList& stmts = unit.stmts();

  // Gather multiplicative sites and other defs per scalar.
  SymbolMap<std::vector<AssignStmt*>> sites;
  SymbolMap<ExprPtr> factors;
  SymbolSet invalid;
  const SymbolSet& modified =
      am.may_defined_symbols(nest, nest->follow());
  for (Statement* s = nest->next(); s != nest->follow(); s = s->next()) {
    if (s->kind() == StmtKind::Assign) {
      auto* a = static_cast<AssignStmt*>(s);
      if (a->lhs().kind() != ExprKind::VarRef) continue;
      Symbol* k = a->target();
      ExprPtr c = match_scale(a);
      if (c == nullptr) {
        invalid.insert(k);  // any non-multiplicative def disqualifies
        continue;
      }
      if (under_if(nest, s)) {
        invalid.insert(k);
        continue;
      }
      bool bad = false;
      walk(*c, [&](const Expression& e) {
        if (e.kind() == ExprKind::VarRef) {
          if (modified.count(static_cast<const VarRef&>(e).symbol()))
            bad = true;
        } else if (e.kind() == ExprKind::ArrayRef ||
                   e.kind() == ExprKind::FuncCall) {
          bad = true;
        }
      });
      // Enclosing loops must have constant step 1.
      for (DoStmt* d = s->outer(); d != nullptr; d = d->outer()) {
        std::int64_t step = 0;
        if (!try_fold_int(d->step(), &step) || step != 1) bad = true;
        if (d == nest) break;
      }
      if (bad) {
        invalid.insert(k);
        continue;
      }
      auto fit = factors.find(k);
      if (fit == factors.end()) {
        factors.emplace(k, c->clone());
      } else if (!fit->second->equals(*c)) {
        invalid.insert(k);  // mixed factors
        continue;
      }
      sites[k].push_back(a);
    } else if (s->kind() == StmtKind::Do) {
      invalid.insert(static_cast<DoStmt*>(s)->index());
    } else if (s->kind() == StmtKind::Call) {
      for (const ExprPtr& e : s->expressions()) {
        walk(*e, [&](const Expression& n) {
          if (n.kind() == ExprKind::VarRef)
            invalid.insert(static_cast<const VarRef&>(n).symbol());
        });
      }
    }
  }

  // The rewrite only helps when K is a *value* (geometric series): uses in
  // array subscripts or DO bounds must stay symbolic or the dependence
  // tests lose the form (an exponential atom defeats the range test).
  for (Statement* s = nest->next(); s != nest->follow(); s = s->next()) {
    auto flag_subscript_uses = [&](const Expression& e) {
      walk(e, [&](const Expression& n) {
        if (n.kind() != ExprKind::ArrayRef) return;
        for (const auto& sub : static_cast<const ArrayRef&>(n).subscripts())
          for (auto& [k, unused] : sites)
            if (sub->references(k)) invalid.insert(k);
      });
    };
    if (s->kind() == StmtKind::Do) {
      auto* d = static_cast<DoStmt*>(s);
      for (auto& [k, unused] : sites) {
        if (d->init().references(k) || d->limit().references(k) ||
            d->step().references(k))
          invalid.insert(k);
      }
    }
    for (const ExprPtr& e : s->expressions()) flag_subscript_uses(*e);
  }

  int rewritten = 0;
  for (auto& [k, k_sites] : sites) {
    if (invalid.count(k)) continue;
    const Expression& factor = *factors.at(k);

    Symbol* counter =
        unit.symtab().fresh(k->name() + "_cnt", Type::integer());
    bool live = is_live_after(nest, k);

    // kc = 0 before the nest.
    {
      std::vector<StmtPtr> frag;
      frag.push_back(std::make_unique<AssignStmt>(ib::var(counter),
                                                  ib::ic(0)));
      stmts.splice_before(nest, std::move(frag));
    }
    // Uses of K inside the nest (outside the sites) -> K * c**kc.
    ExprPtr closed = ib::mul(ib::var(k),
                             ib::pow(factor.clone(), ib::var(counter)));
    for (Statement* s = nest->next(); s != nest->follow(); s = s->next()) {
      bool is_site = false;
      if (s->kind() == StmtKind::Assign) {
        for (AssignStmt* site : k_sites)
          if (site == s) is_site = true;
      }
      if (is_site) continue;
      for (ExprPtr& slot : s->expr_slots()) replace_var(slot, k, *closed);
    }
    // Sites become counter increments.
    for (AssignStmt* site : k_sites) {
      site->lhs_slot() = ib::var(counter);
      site->rhs_slot() = ib::add(ib::var(counter), ib::ic(1));
    }
    // Last value after the nest.
    if (live) {
      std::vector<StmtPtr> frag;
      frag.push_back(
          std::make_unique<AssignStmt>(ib::var(k), closed->clone()));
      stmts.splice_after(nest->follow(), std::move(frag));
    }
    diags.note("induction", context,
               k->name() + ": multiplicative, rewritten via counter " +
                   counter->name());
    ++rewritten;
  }
  return rewritten;
}

}  // namespace

InductionResult substitute_inductions(ProgramUnit& unit, const Options& opts,
                                      Diagnostics& diags,
                                      AnalysisManager& am) {
  InductionResult result;
  if (!opts.induction_subst) return result;
  // Outermost loops only; the solver handles the whole nest.
  for (DoStmt* loop : unit.stmts().loops()) {
    if (loop->outer() != nullptr) continue;
    // A GOTO, RETURN or STOP can leave, skip or re-enter part of the nest,
    // and then neither a closed form after it nor one inside it holds.
    // doall keeps the same loops serial.
    if (has_irregular_flow(loop, loop->follow())) continue;
    std::string context = unit.name() + "/" + loop->loop_name();
    if (opts.multiplicative_induction) {
      int mult = rewrite_multiplicative(unit, loop, diags, context, am);
      if (mult > 0) am.invalidate();  // counters spliced into the nest
      result.substituted += mult;
    }
    NestSolver solver(unit.stmts(), loop, diags, context, am);
    bool any =
        solver.collect(opts.cascaded_induction, opts.triangular_induction);
    result.rejected += solver.rejected_count_;
    if (!any) continue;
    result.substituted += solver.run();
    am.invalidate();  // closed-form substitution rewrote the nest
  }
  return result;
}

}  // namespace polaris
