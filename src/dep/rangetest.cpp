#include "dep/rangetest.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/structure.h"
#include "dep/regions.h"
#include "support/context.h"
#include "support/governor.h"
#include "support/statistic.h"
#include "support/trace.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

POLARIS_STATISTIC("rangetest", pairs_queried,
                  "reference pairs submitted to the symbolic range test");
POLARIS_STATISTIC("rangetest", pairs_proven,
                  "pairs the range test proved independent");
POLARIS_STATISTIC("rangetest", permutations_tried,
                  "fixed-subset loop permutations enumerated");

}  // namespace

bool RangeTest::test_dimension(DoStmt* carrier, const Polynomial& f,
                               const Polynomial& g,
                               const std::vector<DoStmt*>& elim_f,
                               const std::vector<DoStmt*>& elim_g,
                               std::int64_t step, const FactContext& ctx,
                               LoopBoundsMemo& bounds) const {
  // Each reference's range over one iteration of the carrier.
  std::optional<Interval> rf = sweep_loops({f, f}, elim_f, ctx, bounds);
  std::optional<Interval> rg = sweep_loops({g, g}, elim_g, ctx, bounds);
  if (!rf || !rg || bounds.get(carrier) == nullptr) return false;

  // (a) Whole-range disjointness: the two references never touch the same
  // elements at all (for any iteration pair, equal or not).
  DoStmt* const carrier_loop[] = {carrier};
  std::optional<Interval> f_all = sweep_loops(*rf, carrier_loop, ctx, bounds);
  std::optional<Interval> g_all =
      f_all ? sweep_loops(*rg, carrier_loop, ctx, bounds) : std::nullopt;
  if (g_all && (prove_gt0(g_all->lo - f_all->hi, ctx) ||
                prove_gt0(f_all->lo - g_all->hi, ctx)))
    return true;

  // (b) Consecutive-iteration test with the monotonicity extension.
  AtomId x = AtomTable::current().intern_symbol(carrier->index());
  Polynomial next = Polynomial::atom(x) + Polynomial::constant(Rational(step));
  auto direction_ok = [&](const Interval& from, const Interval& to) {
    // Ranges increase with the iteration number: max_from(x) < min_to(x+s),
    // min_to monotone in the direction of travel.
    Monotonicity want_up =
        step > 0 ? Monotonicity::NonDecreasing : Monotonicity::NonIncreasing;
    Monotonicity want_down =
        step > 0 ? Monotonicity::NonIncreasing : Monotonicity::NonDecreasing;
    Polynomial to_min_next = to.lo.substitute(x, next);
    if (prove_gt0(to_min_next - from.hi, ctx) &&
        monotonicity(to.lo, x, ctx) == want_up)
      return true;
    // Ranges decrease with the iteration number.
    Polynomial to_max_next = to.hi.substitute(x, next);
    if (prove_gt0(from.lo - to_max_next, ctx) &&
        monotonicity(to.hi, x, ctx) == want_down)
      return true;
    return false;
  };
  return direction_ok(*rf, *rg) && direction_ok(*rg, *rf);
}

bool RangeTest::independent(DoStmt* carrier, const ArrayAccess& a,
                            const ArrayAccess& b) const {
  try {
    return independent_impl(carrier, a, b);
  } catch (const ResourceBlowup& blow) {
    // Conservative bail-out: the query's symbolic work hit a governor
    // ceiling.  "Could not prove independence" is always correct; the
    // partially-built fact context was not cached (pair_fact_context only
    // caches a compute() that returns), so a later un-governed query
    // starts clean.
    note_conservative_bailout("rangetest", blow);
    return false;
  }
}

bool RangeTest::independent_impl(DoStmt* carrier, const ArrayAccess& a,
                                 const ArrayAccess& b) const {
  p_assert(a.ref->symbol() == b.ref->symbol());
  p_assert(a.ref->rank() == b.ref->rank());
  ++pairs_queried;
  CompileContext* cc = am_.context();
  trace::TraceSpan pair_span(cc != nullptr ? &cc->trace() : nullptr,
                             "rangetest", "dep");
  pair_span.arg("array", a.ref->symbol()->name());

  std::int64_t step = 0;
  if (!try_fold_int(carrier->step(), &step) || step == 0) return false;

  // Loop sets: common inner loops may be fixed or eliminated; loops
  // enclosing only one access are always eliminated for that access.
  std::vector<DoStmt*> nest_a = enclosing_loops(a.stmt);
  std::vector<DoStmt*> nest_b = enclosing_loops(b.stmt);
  auto inside_carrier = [&](const std::vector<DoStmt*>& nest) {
    std::vector<DoStmt*> out;
    bool in = false;
    for (DoStmt* d : nest) {
      if (in) out.push_back(d);
      if (d == carrier) in = true;
    }
    p_assert_msg(in, "access not inside the carrier loop");
    return out;
  };
  std::vector<DoStmt*> inner_a = inside_carrier(nest_a);
  std::vector<DoStmt*> inner_b = inside_carrier(nest_b);

  std::vector<DoStmt*> common;
  for (DoStmt* d : inner_a)
    if (std::find(inner_b.begin(), inner_b.end(), d) != inner_b.end())
      common.push_back(d);

  // Facts: every enclosing loop of either access contributes its bounds,
  // plus the guard conditions around the carrier (they hold for every
  // execution of the body); ranks make inner indices eliminate first.
  // Memoized per (carrier, pair): DOALL probes and the final run re-test
  // the same pairs.
  LoopBoundsMemo bounds;
  auto build_ctx = [&] {
    FactContext fc;
    add_guard_facts(fc, carrier);
    int rank = 1;
    for (DoStmt* d : nest_a) add_loop_facts(fc, d, rank++, bounds);
    for (DoStmt* d : nest_b)
      if (std::find(nest_a.begin(), nest_a.end(), d) == nest_a.end())
        add_loop_facts(fc, d, rank++, bounds);
    return fc;
  };
  const FactContext& ctx =
      am_.pair_fact_context(carrier, a.stmt, b.stmt, build_ctx);

  // Enumerate fixed-subsets of the common inner loops ("loop permutations"
  // in the paper's terms) in ascending mask order, bounded by twice the
  // permutation budget.
  const size_t n_common = common.size();
  const size_t subsets = n_common >= 10 ? 1024 : (size_t{1} << n_common);
  size_t budget = static_cast<size_t>(std::max(1, opts_.max_loop_permutations));

  auto deeper_first = [this](std::vector<DoStmt*> v) {
    std::stable_sort(v.begin(), v.end(), [](DoStmt* p, DoStmt* q) {
      // Deeper loops (more enclosing DOs) first.
      int dp = 0, dq = 0;
      for (DoStmt* o = p->outer(); o; o = o->outer()) ++dp;
      for (DoStmt* o = q->outer(); o; o = o->outer()) ++dq;
      return dp > dq;
    });
    return v;
  };

  // The subscript polynomials are mask-invariant; memoize them across the
  // enumeration (every mask used to re-canonicalize every dimension).
  // Conversion stays lazy and in the legacy dimension order, so the
  // atom-interning sequence — and with it canonical term order — is the
  // same as converting inside the loop.
  std::vector<std::optional<std::pair<Polynomial, Polynomial>>> dim_polys(
      static_cast<size_t>(a.ref->rank()));
  auto dim = [&](int d) -> const std::pair<Polynomial, Polynomial>& {
    auto& slot = dim_polys[static_cast<size_t>(d)];
    if (!slot)
      slot.emplace(Polynomial::from_expr(*a.ref->subscripts()[d]),
                   Polynomial::from_expr(*b.ref->subscripts()[d]));
    return *slot;
  };

  for (size_t mask = 0; mask < subsets && mask < budget * 2; ++mask) {
    ++permutations_tried;
    // Each visitation order is a unit of symbolic search work; charging
    // it keeps hostile compile budgets from degenerating into exhaustive
    // permutation sweeps.
    if (ResourceGovernor* gov = ResourceGovernor::current()) gov->charge(16);
    std::vector<DoStmt*> fixed;
    for (size_t bit = 0; bit < n_common; ++bit)
      if (mask & (size_t{1} << bit)) fixed.push_back(common[bit]);

    auto build_elim = [&](const std::vector<DoStmt*>& inner) {
      std::vector<DoStmt*> elim;
      for (DoStmt* d : inner)
        if (std::find(fixed.begin(), fixed.end(), d) == fixed.end())
          elim.push_back(d);
      return deeper_first(std::move(elim));
    };
    std::vector<DoStmt*> elim_f = build_elim(inner_a);
    std::vector<DoStmt*> elim_g = build_elim(inner_b);

    // Per-dimension: any provably disjoint dimension kills the pair.
    for (int d = 0; d < a.ref->rank(); ++d) {
      const auto& [f, g] = dim(d);
      if (test_dimension(carrier, f, g, elim_f, elim_g, step, ctx, bounds)) {
        ++pairs_proven;
        pair_span.arg("proven", "true");
        return true;
      }
    }
  }
  return false;
}

}  // namespace polaris
