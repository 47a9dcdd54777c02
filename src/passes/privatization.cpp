#include "passes/privatization.h"

#include <algorithm>
#include <map>

#include "analysis/gsa.h"
#include "analysis/structure.h"
#include "dep/access.h"
#include "dep/regions.h"
#include "ir/build.h"
#include "support/statistic.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

POLARIS_STATISTIC("privatization", scalars_privatized,
                  "scalars proven private to a loop iteration");
POLARIS_STATISTIC("privatization", arrays_privatized,
                  "arrays proven private to a loop iteration");
POLARIS_STATISTIC("privatization", privatization_blocked,
                  "variables that failed the privatization proof");

/// True if `s` lies under an IF within `loop`'s body.
bool under_if(DoStmt* loop, Statement* s) {
  int depth = 0;
  for (Statement* cur = loop->next(); cur != s; cur = cur->next()) {
    p_assert(cur != nullptr);
    if (cur->kind() == StmtKind::If) ++depth;
    else if (cur->kind() == StmtKind::EndIf) --depth;
  }
  return depth > 0;
}

/// The BDNA Figure 5 idiom: the read is A(IND(l)) with l the index of its
/// containing loop `do l = 1, P`; an earlier inner "compress" loop fills
/// IND(1..P) with values of a variable whose range is known:
///     P = 0
///     do k = lo, hi
///       [if (cond) then]  P = P + 1 ; IND(P) = k  [end if]
///     end do
/// The read's *value* interval is then [lo, hi].
std::optional<Interval> gather_read_range(DoStmt* outer, Statement* read_stmt,
                                          const ArrayRef& read_ref,
                                          const FactContext& ctx,
                                          LoopBoundsMemo& bounds) {
  if (read_ref.rank() != 1) return std::nullopt;
  const Expression* sub = read_ref.subscripts()[0].get();

  // Scalar-mediated form (the paper's Figure 5 literally): M = IND(L)
  // earlier in the same loop, then A(M).  Resolve M to IND(L).
  if (sub->kind() == ExprKind::VarRef) {
    Symbol* m = static_cast<const VarRef&>(*sub).symbol();
    DoStmt* rl = read_stmt->outer();
    if (rl == nullptr) return std::nullopt;
    const Expression* resolved = nullptr;
    for (Statement* q = rl->next(); q != read_stmt; q = q->next()) {
      if (q->kind() == StmtKind::Assign) {
        auto* a = static_cast<AssignStmt*>(q);
        if (a->lhs().kind() == ExprKind::VarRef && a->target() == m)
          resolved = &a->rhs();
      }
    }
    if (resolved == nullptr || resolved->kind() != ExprKind::ArrayRef)
      return std::nullopt;
    sub = resolved;
  }
  if (sub->kind() != ExprKind::ArrayRef) return std::nullopt;
  const auto& ind_ref = static_cast<const ArrayRef&>(*sub);
  Symbol* ind = ind_ref.symbol();
  if (ind_ref.rank() != 1 ||
      ind_ref.subscripts()[0]->kind() != ExprKind::VarRef)
    return std::nullopt;
  Symbol* l = static_cast<const VarRef&>(*ind_ref.subscripts()[0]).symbol();

  // l must be the index of the read's loop, with bounds [1, P].
  DoStmt* read_loop = read_stmt->outer();
  if (read_loop == nullptr || read_loop->index() != l) return std::nullopt;
  std::int64_t one = 0;
  if (!try_fold_int(read_loop->init(), &one) || one != 1) return std::nullopt;
  if (read_loop->limit().kind() != ExprKind::VarRef) return std::nullopt;
  Symbol* p = static_cast<const VarRef&>(read_loop->limit()).symbol();

  // Find the compress loop: an earlier loop inside `outer` containing
  // P = P + 1 immediately followed by IND(P) = <value>.
  for (Statement* s = outer->next(); s != read_loop; s = s->next()) {
    p_assert(s != nullptr);
    if (s->kind() != StmtKind::Do) continue;
    auto* k_loop = static_cast<DoStmt*>(s);
    for (Statement* t = k_loop->next(); t != k_loop->follow();
         t = t->next()) {
      if (t->kind() != StmtKind::Assign) continue;
      auto* inc = static_cast<AssignStmt*>(t);
      // P = P + 1
      ExprPtr pat = ib::add(ib::var(p), ib::ic(1));
      if (!(inc->lhs().kind() == ExprKind::VarRef && inc->target() == p &&
            inc->rhs().equals(*pat)))
        continue;
      Statement* nxt = t->next();
      if (nxt == nullptr || nxt->kind() != StmtKind::Assign) continue;
      auto* store = static_cast<AssignStmt*>(nxt);
      if (store->lhs().kind() != ExprKind::ArrayRef) continue;
      const auto& sref = static_cast<const ArrayRef&>(store->lhs());
      if (sref.symbol() != ind || sref.rank() != 1) continue;
      if (!(sref.subscripts()[0]->kind() == ExprKind::VarRef &&
            static_cast<const VarRef&>(*sref.subscripts()[0]).symbol() == p))
        continue;
      // P must start at 0 before the compress loop.
      bool p_zeroed = false;
      for (Statement* q = outer->next(); q != k_loop; q = q->next()) {
        if (q->kind() == StmtKind::Assign) {
          auto* a = static_cast<AssignStmt*>(q);
          if (a->lhs().kind() == ExprKind::VarRef && a->target() == p) {
            std::int64_t z = -1;
            p_zeroed = try_fold_int(a->rhs(), &z) && z == 0;
          }
        }
      }
      if (!p_zeroed) return std::nullopt;
      // The stored value's interval over the compress loop's sweep.
      Polynomial v = Polynomial::from_expr(store->rhs());
      AtomId kx = AtomTable::current().intern_symbol(k_loop->index());
      const LoopBounds* kb = bounds.get(k_loop);
      if (kb == nullptr) return std::nullopt;
      Extremes ex = eliminate_range(v, kx, kb->lo, kb->hi, ctx);
      if (!ex.min || !ex.max) return std::nullopt;
      // IND must not be rewritten between the compress loop and the read.
      for (Statement* q = k_loop->follow(); q != read_stmt; q = q->next()) {
        if (q->kind() == StmtKind::Assign &&
            static_cast<AssignStmt*>(q)->lhs().kind() == ExprKind::ArrayRef &&
            static_cast<AssignStmt*>(q)->target() == ind)
          return std::nullopt;
      }
      return Interval{*ex.min, *ex.max};
    }
  }
  return std::nullopt;
}

/// Monotonic-counter facts (the GSA monotonic-variable identification of
/// Section 3.4): a scalar initialized to a constant before an inner loop
/// and only ever incremented by 1 inside it (conditionally or not) is
/// bounded by [init, init + trip_count].  Adds those facts to `ctx` so
/// read intervals like IND(1:P) can be compared against definition
/// regions.
void add_counter_facts(FactContext& ctx, DoStmt* loop) {
  // Collect per-scalar: constant inits at body level, +1 increments, and
  // any disqualifying defs.
  struct CounterInfo {
    std::optional<std::int64_t> init;
    DoStmt* inc_loop = nullptr;
    int incs = 0;
    bool bad = false;
  };
  SymbolMap<CounterInfo> info;
  for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
    if (s->kind() == StmtKind::Do) {
      info[static_cast<DoStmt*>(s)->index()].bad = true;
      continue;
    }
    if (s->kind() != StmtKind::Assign) continue;
    auto* a = static_cast<AssignStmt*>(s);
    if (a->lhs().kind() != ExprKind::VarRef) continue;
    Symbol* v = a->target();
    CounterInfo& ci = info[v];
    std::int64_t c = 0;
    ExprPtr inc_pat = ib::add(ib::var(v), ib::ic(1));
    if (a->rhs().equals(*inc_pat)) {
      DoStmt* encl = s->outer();
      if (encl == loop || encl == nullptr) {
        ci.bad = true;  // increments directly at body level: unbounded use
      } else if (ci.inc_loop != nullptr && ci.inc_loop != encl) {
        ci.bad = true;
      } else {
        ci.inc_loop = encl;
        ++ci.incs;
      }
    } else if (try_fold_int(a->rhs(), &c) && s->outer() == loop) {
      if (ci.init.has_value()) ci.bad = true;  // reinitialized
      ci.init = c;
    } else {
      ci.bad = true;
    }
  }
  for (const auto& [v, ci] : info) {
    if (ci.bad || !ci.init || ci.inc_loop == nullptr || ci.incs != 1)
      continue;
    std::int64_t step = 0;
    if (!try_fold_int(ci.inc_loop->step(), &step) || step != 1) continue;
    Polynomial trips = Polynomial::from_expr(ci.inc_loop->limit()) -
                       Polynomial::from_expr(ci.inc_loop->init()) +
                       Polynomial::constant(1);
    Polynomial p = Polynomial::symbol(v);
    Polynomial c0 = Polynomial::constant(Rational(*ci.init));
    ctx.add_ge0(p - c0);           // v >= init
    ctx.add_ge0(c0 + trips - p);   // v <= init + trips
  }
}

}  // namespace

void PrivatizationResult::record(ParallelInfo& par) const {
  par.private_vars = private_scalars;
  par.private_vars.insert(par.private_vars.end(), private_arrays.begin(),
                          private_arrays.end());
  par.lastvalue_vars = lastvalue_scalars;
}

PrivatizationResult analyze_privatization(ProgramUnit& unit, DoStmt* loop,
                                          const Options& opts,
                                          Diagnostics& diags,
                                          AnalysisManager& am) {
  PrivatizationResult result;
  const std::string context = unit.name() + "/" + loop->loop_name();
  Statement* body_first = loop->next();
  Statement* body_last = loop->follow()->prev();
  const bool empty_body = (body_first == loop->follow());

  // --- scalars ---------------------------------------------------------------
  SymbolSet exposed, must;
  if (!empty_body) {
    exposed = am.upward_exposed_scalars(body_first, body_last);
    must = am.must_defined_scalars(body_first, body_last);
  }
  for (Symbol* s : scalars_assigned(loop)) {
    bool is_inner_index = false;
    for (DoStmt* d : unit.stmts().loops_in(loop))
      if (d->index() == s) is_inner_index = true;

    if (!opts.scalar_privatization && !is_inner_index) {
      result.blocked.push_back(s);
      continue;
    }
    if (exposed.count(s)) {
      diags.note("privatization", context,
                 s->name() + ": upward-exposed use, not privatizable");
      ++privatization_blocked;
      result.blocked.push_back(s);
      continue;
    }
    bool live_out = is_live_after(loop, s);
    if (live_out && !must.count(s)) {
      diags.note("privatization", context,
                 s->name() + ": live-out but conditionally assigned");
      ++privatization_blocked;
      result.blocked.push_back(s);
      continue;
    }
    ++scalars_privatized;
    result.private_scalars.push_back(s);
    if (live_out) result.lastvalue_scalars.push_back(s);
  }

  // --- arrays ----------------------------------------------------------------
  auto accesses = collect_array_accesses(loop);
  GsaQuery& gsa = am.gsa(unit);
  for (auto& [array, refs] : accesses) {
    bool written = std::any_of(refs.begin(), refs.end(),
                               [](const ArrayAccess& a) { return a.is_write; });
    if (!written) continue;
    if (!opts.array_privatization) {
      result.blocked.push_back(array);
      continue;
    }
    if (is_live_after(loop, array)) {
      diags.note("privatization", context,
                 array->name() + ": live after loop, no array copy-out");
      result.blocked.push_back(array);
      continue;
    }

    // Walk accesses in statement order; writes outside IFs contribute
    // definition intervals, every read must be covered by a prior one.
    Statement* at = empty_body ? loop : body_first;
    FactContext ctx =
        am.fact_context(at, [&] { return loop_fact_context(at); });
    LoopBoundsMemo bounds;
    int inner_rank = 100;
    for (DoStmt* d : unit.stmts().loops_in(loop))
      add_loop_facts(ctx, d, inner_rank++, bounds);
    add_counter_facts(ctx, loop);
    std::vector<std::vector<Interval>> defs;  // per-dim lists
    int rank = array->rank() > 0 ? array->rank() : refs.front().ref->rank();
    defs.resize(static_cast<size_t>(rank));
    bool ok = true;
    std::string why;

    // Accesses are collected per statement in body order; reads before
    // writes within one statement (rhs evaluates first).
    std::vector<const ArrayAccess*> ordered;
    for (Statement* s = loop->next(); s != loop->follow(); s = s->next()) {
      for (const ArrayAccess& a : refs)
        if (a.stmt == s && !a.is_write) ordered.push_back(&a);
      for (const ArrayAccess& a : refs)
        if (a.stmt == s && a.is_write) ordered.push_back(&a);
    }

    for (const ArrayAccess* a : ordered) {
      if (!ok) break;
      if (a->is_write) {
        if (under_if(loop, a->stmt)) continue;  // conditional: no coverage
        bool usable = true;
        std::vector<Interval> iv;
        for (int d = 0; d < rank; ++d) {
          auto interval = access_interval(*a->ref, d, a->stmt, loop, ctx,
                                          bounds);
          if (!interval) {
            usable = false;
            break;
          }
          iv.push_back(std::move(*interval));
        }
        if (usable)
          for (int d = 0; d < rank; ++d)
            defs[static_cast<size_t>(d)].push_back(iv[static_cast<size_t>(d)]);
        continue;
      }
      // Read: every dimension must be inside some recorded def interval.
      for (int d = 0; d < rank && ok; ++d) {
        auto check = [&](const Interval& interval) {
          for (const Interval& def : defs[static_cast<size_t>(d)]) {
            if (interval_contains(def, interval, ctx)) return true;
            // Symbolic containment may need reaching-definition knowledge
            // (paper Figure 4: MP >= M*P).
            if (opts.gsa_queries) {
              ExprPtr rlo = interval.lo.to_expr();
              ExprPtr rhi = interval.hi.to_expr();
              ExprPtr dlo = def.lo.to_expr();
              ExprPtr dhi = def.hi.to_expr();
              if (gsa.prove_ge_at(*rlo, *dlo, loop, ctx) &&
                  gsa.prove_le_at(*rhi, *dhi, loop, ctx))
                return true;
            }
          }
          return false;
        };
        auto interval = access_interval(*a->ref, d, a->stmt, loop, ctx,
                                          bounds);
        bool covered = interval.has_value() && check(*interval);
        if (!covered && rank == 1 && opts.gsa_queries) {
          // The gather idiom (paper Figure 5): the subscript's *values*
          // come from a monotonic compress loop with a known range.
          auto gathered =
              gather_read_range(loop, a->stmt, *a->ref, ctx, bounds);
          covered = gathered.has_value() && check(*gathered);
        }
        if (!covered) {
          ok = false;
          why = "read " + a->ref->to_string() + " not covered by a prior def";
        }
      }
    }

    if (ok) {
      diags.note("privatization", context, array->name() + ": privatized");
      ++arrays_privatized;
      result.private_arrays.push_back(array);
    } else {
      diags.note("privatization", context, array->name() + ": " + why);
      ++privatization_blocked;
      result.blocked.push_back(array);
    }
  }
  return result;
}

}  // namespace polaris
