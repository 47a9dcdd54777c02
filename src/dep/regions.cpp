#include "dep/regions.h"

#include <algorithm>

#include "analysis/structure.h"
#include "symbolic/simplify.h"

namespace polaris {

const LoopBounds* LoopBoundsMemo::get(DoStmt* loop) {
  auto it = bounds_.find(loop);
  if (it == bounds_.end()) {
    std::optional<LoopBounds> b;
    std::int64_t step = 0;
    if (try_fold_int(loop->step(), &step) && step != 0) {
      Polynomial init = Polynomial::from_expr(loop->init());
      Polynomial limit = Polynomial::from_expr(loop->limit());
      if (step > 0)
        b.emplace(LoopBounds{std::move(init), std::move(limit)});
      else
        b.emplace(LoopBounds{std::move(limit), std::move(init)});
    }
    it = bounds_.emplace(loop, std::move(b)).first;
  }
  return it->second ? &*it->second : nullptr;
}

bool references_through_atoms(const Polynomial& p, const Symbol* sym) {
  for (AtomId a : p.atoms()) {
    const Expression& e = AtomTable::current().expr(a);
    if (AtomTable::current().symbol(a) == nullptr && e.references(sym))
      return true;
  }
  return false;
}

void add_loop_facts(FactContext& ctx, DoStmt* loop, int rank,
                    LoopBoundsMemo& bounds) {
  if (const LoopBounds* b = bounds.get(loop)) {
    ctx.add_ge0(Polynomial::symbol(loop->index()) - b->lo);
    ctx.add_ge0(b->hi - Polynomial::symbol(loop->index()));
    ctx.add_ge0(b->hi - b->lo);
  }
  ctx.set_rank(AtomTable::current().intern_symbol(loop->index()), rank);
}

namespace {

/// Splits a guard condition into >=0 facts (conjunctions recursively;
/// integer strict comparisons tightened by one).
void add_condition(FactContext& ctx, const Expression& cond) {
  if (cond.kind() == ExprKind::BinOp) {
    const auto& b = static_cast<const BinOp&>(cond);
    if (b.op() == BinOpKind::And) {
      add_condition(ctx, b.left());
      add_condition(ctx, b.right());
      return;
    }
    const bool integers =
        b.left().type().is_integer() && b.right().type().is_integer();
    Polynomial l = Polynomial::from_expr(b.left());
    Polynomial r = Polynomial::from_expr(b.right());
    Polynomial one = Polynomial::constant(Rational(1));
    switch (b.op()) {
      case BinOpKind::Ge:
        ctx.add_ge0(l - r);
        break;
      case BinOpKind::Gt:
        ctx.add_ge0(integers ? l - r - one : l - r);
        break;
      case BinOpKind::Le:
        ctx.add_ge0(r - l);
        break;
      case BinOpKind::Lt:
        ctx.add_ge0(integers ? r - l - one : r - l);
        break;
      case BinOpKind::Eq:
        ctx.add_ge0(l - r);
        ctx.add_ge0(r - l);
        break;
      default:
        break;
    }
  }
}

}  // namespace

void add_guard_facts(FactContext& ctx, Statement* s) {
  if (s == nullptr || s->list() == nullptr) return;
  // Track the enclosing if-chains (and the active arm) by a forward scan.
  struct Frame {
    Statement* arm;  // If / ElseIf / Else currently active
  };
  std::vector<Frame> stack;
  for (Statement* cur : *s->list()) {
    if (cur == s) break;
    switch (cur->kind()) {
      case StmtKind::If:
        stack.push_back({cur});
        break;
      case StmtKind::ElseIf:
      case StmtKind::Else:
        p_assert(!stack.empty());
        stack.back().arm = cur;
        break;
      case StmtKind::EndIf:
        p_assert(!stack.empty());
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  for (const Frame& f : stack) {
    if (f.arm->kind() == StmtKind::If)
      add_condition(ctx, static_cast<IfStmt*>(f.arm)->cond());
    else if (f.arm->kind() == StmtKind::ElseIf)
      add_condition(ctx, static_cast<ElseIfStmt*>(f.arm)->cond());
    // ELSE: only negated conditions would apply; not synthesized.
  }
}

FactContext loop_fact_context(Statement* s) {
  FactContext ctx;
  LoopBoundsMemo bounds;
  int rank = 1;
  for (DoStmt* d : enclosing_loops(s)) add_loop_facts(ctx, d, rank++, bounds);
  add_guard_facts(ctx, s);
  return ctx;
}

std::optional<Interval> sweep_loops(Interval range,
                                    std::span<DoStmt* const> loops,
                                    const FactContext& ctx,
                                    LoopBoundsMemo& bounds) {
  for (DoStmt* d : loops) {
    const LoopBounds* b = bounds.get(d);
    if (b == nullptr) return std::nullopt;
    AtomId a = AtomTable::current().intern_symbol(d->index());
    Extremes lo_ext = eliminate_range(range.lo, a, b->lo, b->hi, ctx);
    Extremes hi_ext = eliminate_range(range.hi, a, b->lo, b->hi, ctx);
    if (!lo_ext.min || !hi_ext.max) return std::nullopt;
    range.lo = std::move(*lo_ext.min);
    range.hi = std::move(*hi_ext.max);
    if (references_through_atoms(range.lo, d->index()) ||
        references_through_atoms(range.hi, d->index()))
      return std::nullopt;
  }
  return range;
}

std::optional<Interval> access_interval(const ArrayRef& ref, int dim,
                                        Statement* stmt, DoStmt* within,
                                        const FactContext& ctx,
                                        LoopBoundsMemo& bounds) {
  p_assert(dim >= 0 && dim < ref.rank());
  Polynomial f = Polynomial::from_expr(*ref.subscripts()[dim]);

  // Loops strictly inside `within` that enclose the access, innermost
  // first.
  std::vector<DoStmt*> sweep;
  bool found = (within == nullptr);
  for (DoStmt* d = stmt->outer(); d != nullptr; d = d->outer()) {
    if (d == within) {
      found = true;
      break;
    }
    sweep.push_back(d);
  }
  p_assert_msg(found, "access statement not inside the given loop");
  return sweep_loops({f, f}, sweep, ctx, bounds);
}

bool interval_contains(const Interval& outer, const Interval& inner,
                       const FactContext& ctx) {
  return prove_ge0(inner.lo - outer.lo, ctx) &&
         prove_ge0(outer.hi - inner.hi, ctx);
}

}  // namespace polaris
