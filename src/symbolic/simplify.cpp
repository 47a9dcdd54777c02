#include "symbolic/simplify.h"

#include "ir/build.h"
#include "support/governor.h"
#include "support/statistic.h"
#include "symbolic/poly.h"

namespace polaris {

namespace {

POLARIS_STATISTIC("simplify", canonical_roundtrips,
                  "integer subtrees kept in canonical polynomial form");
POLARIS_STATISTIC("simplify", comparisons_folded,
                  "constant comparisons folded to a logical constant");

/// Counts nodes, a crude size metric to decide whether canonicalization
/// actually simplified anything.
int node_count(const Expression& e) {
  int n = 0;
  walk(e, [&](const Expression&) { ++n; });
  return n;
}

bool is_arith_kind(const Expression& e) {
  if (e.kind() == ExprKind::UnOp)
    return static_cast<const UnOp&>(e).op() == UnOpKind::Neg;
  if (e.kind() == ExprKind::BinOp)
    return is_arithmetic(static_cast<const BinOp&>(e).op());
  return false;
}

/// A simplified expression with its node count threaded alongside, so the
/// canonical-vs-structural size race at every integer subtree compares
/// counts accumulated during the rewrite instead of re-walking both
/// results at every level (which made simplification quadratic in depth).
struct SimpRes {
  ExprPtr e;
  int n;
};

SimpRes simplify_rec(const Expression& e, int depth);

/// Structural rewrite: the node itself with each child simplified.
/// Count identity: walk() visits a node then its children, so the total
/// is one plus the simplified children's counts.
SimpRes simplify_children(const Expression& e, int depth) {
  ExprPtr copy = e.clone();
  int n = 1;
  for (ExprPtr& slot : copy->children()) {
    SimpRes child = simplify_rec(*slot, depth + 1);
    n += child.n;
    slot = std::move(child.e);
  }
  return {std::move(copy), n};
}

std::optional<double> fold_real(const Expression& e) {
  switch (e.kind()) {
    case ExprKind::IntConst:
      return static_cast<double>(static_cast<const IntConst&>(e).value());
    case ExprKind::RealConst:
      return static_cast<const RealConst&>(e).value();
    default:
      return std::nullopt;
  }
}

SimpRes simplify_float_binop(const BinOp& b, SimpRes l, SimpRes r) {
  auto lv = fold_real(*l.e);
  auto rv = fold_real(*r.e);
  bool dbl = b.type().kind() == TypeKind::DoublePrecision;
  if (lv && rv) {
    switch (b.op()) {
      case BinOpKind::Add: return {ib::rc(*lv + *rv, dbl), 1};
      case BinOpKind::Sub: return {ib::rc(*lv - *rv, dbl), 1};
      case BinOpKind::Mul: return {ib::rc(*lv * *rv, dbl), 1};
      case BinOpKind::Div:
        if (*rv != 0.0) return {ib::rc(*lv / *rv, dbl), 1};
        break;
      default:
        break;
    }
  }
  // Identities (exact in IEEE arithmetic for these operand positions).
  // A floating operand must already have the BinOp's floating kind: in
  // mixed-precision expressions like `real_x - 0.0d0` the operation's
  // double type is part of the semantics, and returning the bare REAL
  // operand would silently demote the subtree (and vice versa for a
  // DOUBLE operand in a REAL-typed operation).  Integer operands stay
  // foldable — the value is exact and the context converts.
  auto keeps_type = [&](const SimpRes& kept) {
    return !kept.e->type().is_floating() ||
           kept.e->type().kind() == b.type().kind();
  };
  if (rv && *rv == 0.0 &&
      (b.op() == BinOpKind::Add || b.op() == BinOpKind::Sub) &&
      keeps_type(l))
    return l;
  if (lv && *lv == 0.0 && b.op() == BinOpKind::Add && keeps_type(r)) return r;
  if (rv && *rv == 1.0 &&
      (b.op() == BinOpKind::Mul || b.op() == BinOpKind::Div) &&
      keeps_type(l))
    return l;
  if (lv && *lv == 1.0 && b.op() == BinOpKind::Mul && keeps_type(r)) return r;
  int n = 1 + l.n + r.n;
  return {ib::bin(b.op(), std::move(l.e), std::move(r.e)), n};
}

SimpRes simplify_rec(const Expression& e, int depth) {
  // Degradation-ladder depth limit (ResourceGovernor, retry rungs only):
  // past the limit the subtree is kept verbatim — unsimplified is always
  // a correct answer.
  if (ResourceGovernor* gov = ResourceGovernor::current()) {
    const int limit = gov->simplify_depth_limit();
    if (limit > 0 && depth >= limit) return {e.clone(), node_count(e)};
  }
  // Integer arithmetic: canonical polynomial round trip, kept only when it
  // does not grow the tree.  The structural rewrite must still be built —
  // its size decides the race, and its nested subtrees run their own races
  // (whose statistics are part of the deterministic compile record).
  if (is_arith_kind(e) && e.type().is_integer()) {
    Polynomial p = Polynomial::from_expr(e, /*exact_division=*/false);
    ExprPtr canon = p.to_expr();
    int canon_n = node_count(*canon);
    SimpRes structural = simplify_children(e, depth);
    if (canon_n <= structural.n) {
      ++canonical_roundtrips;
      return {std::move(canon), canon_n};
    }
    return structural;
  }
  switch (e.kind()) {
    case ExprKind::BinOp: {
      const auto& b = static_cast<const BinOp&>(e);
      SimpRes l = simplify_rec(b.left(), depth + 1);
      SimpRes r = simplify_rec(b.right(), depth + 1);
      if (is_arithmetic(b.op()) && b.type().is_floating())
        return simplify_float_binop(b, std::move(l), std::move(r));
      if (b.op() == BinOpKind::And || b.op() == BinOpKind::Or) {
        // Logical constant folding.
        auto as_bool = [](const Expression& x) -> std::optional<bool> {
          if (x.kind() == ExprKind::LogicalConst)
            return static_cast<const LogicalConst&>(x).value();
          return std::nullopt;
        };
        auto lb = as_bool(*l.e), rb = as_bool(*r.e);
        if (b.op() == BinOpKind::And) {
          if (lb && !*lb) return {ib::lc(false), 1};
          if (rb && !*rb) return {ib::lc(false), 1};
          if (lb && *lb) return r;
          if (rb && *rb) return l;
        } else {
          if (lb && *lb) return {ib::lc(true), 1};
          if (rb && *rb) return {ib::lc(true), 1};
          if (lb && !*lb) return r;
          if (rb && !*rb) return l;
        }
      }
      if (is_comparison(b.op())) {
        // Fold comparisons of constants via the polynomial difference.
        Polynomial d = Polynomial::from_expr(*l.e, false) -
                       Polynomial::from_expr(*r.e, false);
        if (d.is_constant()) {
          ++comparisons_folded;
          int s = d.constant_value().sign();
          switch (b.op()) {
            case BinOpKind::Lt: return {ib::lc(s < 0), 1};
            case BinOpKind::Le: return {ib::lc(s <= 0), 1};
            case BinOpKind::Gt: return {ib::lc(s > 0), 1};
            case BinOpKind::Ge: return {ib::lc(s >= 0), 1};
            case BinOpKind::Eq: return {ib::lc(s == 0), 1};
            case BinOpKind::Ne: return {ib::lc(s != 0), 1};
            default: break;
          }
        }
      }
      int n = 1 + l.n + r.n;
      return {ib::bin(b.op(), std::move(l.e), std::move(r.e)), n};
    }
    case ExprKind::UnOp: {
      const auto& u = static_cast<const UnOp&>(e);
      SimpRes op = simplify_rec(u.operand(), depth + 1);
      if (u.op() == UnOpKind::Not &&
          op.e->kind() == ExprKind::LogicalConst)
        return {ib::lc(!static_cast<const LogicalConst&>(*op.e).value()), 1};
      if (u.op() == UnOpKind::Neg) {
        if (auto v = fold_real(*op.e)) {
          if (op.e->kind() == ExprKind::IntConst)
            return {ib::ic(-static_cast<const IntConst&>(*op.e).value()), 1};
          return {ib::rc(-*v,
                         op.e->type().kind() == TypeKind::DoublePrecision),
                  1};
        }
      }
      int n = 1 + op.n;
      return {std::make_unique<UnOp>(u.op(), std::move(op.e)), n};
    }
    default:
      return simplify_children(e, depth);
  }
}

}  // namespace

// The three public entry points are conservative bail-out boundaries: a
// resource ceiling tripping mid-rewrite (polynomial term ceiling, atom
// ceiling, compile fuel) yields the original expression / "not a
// constant" instead of propagating — unsimplified is always correct.

ExprPtr simplify(const Expression& e) {
  try {
    return simplify_rec(e, 0).e;
  } catch (const ResourceBlowup& b) {
    note_conservative_bailout("simplify", b);
    return e.clone();
  }
}

void simplify_in_place(ExprPtr& e) {
  p_assert(e != nullptr);
  try {
    e = simplify_rec(*e, 0).e;
  } catch (const ResourceBlowup& b) {
    note_conservative_bailout("simplify", b);
  }
}

bool try_fold_int(const Expression& e, std::int64_t* out) {
  p_assert(out != nullptr);
  if (e.kind() == ExprKind::IntConst) {
    *out = static_cast<const IntConst&>(e).value();
    return true;
  }
  try {
    Polynomial p = Polynomial::from_expr(e, /*exact_division=*/false);
    if (!p.is_constant() || !p.constant_value().is_integer()) return false;
    *out = p.constant_value().as_integer();
    return true;
  } catch (const ResourceBlowup& b) {
    note_conservative_bailout("simplify", b);
    return false;
  }
}

}  // namespace polaris
