// Expression factory helpers.
//
// Concise builders used throughout passes and tests:
//   ib::add(ib::var(i), ib::ic(1))   ->   i + 1
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ir/expr.h"

namespace polaris::ib {

inline ExprPtr ic(std::int64_t v) { return std::make_unique<IntConst>(v); }
inline ExprPtr rc(double v, bool dbl = false) {
  return std::make_unique<RealConst>(v, dbl);
}
inline ExprPtr lc(bool v) { return std::make_unique<LogicalConst>(v); }
inline ExprPtr var(Symbol* s) { return std::make_unique<VarRef>(s); }

inline ExprPtr aref(Symbol* s, std::vector<ExprPtr> subs) {
  return std::make_unique<ArrayRef>(s, std::move(subs));
}
inline ExprPtr aref(Symbol* s, ExprPtr s1) {
  std::vector<ExprPtr> subs;
  subs.push_back(std::move(s1));
  return aref(s, std::move(subs));
}
inline ExprPtr aref(Symbol* s, ExprPtr s1, ExprPtr s2) {
  std::vector<ExprPtr> subs;
  subs.push_back(std::move(s1));
  subs.push_back(std::move(s2));
  return aref(s, std::move(subs));
}

inline ExprPtr bin(BinOpKind op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinOp>(op, std::move(l), std::move(r));
}
inline ExprPtr add(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Add, std::move(l), std::move(r));
}
inline ExprPtr sub(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Sub, std::move(l), std::move(r));
}
inline ExprPtr mul(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Mul, std::move(l), std::move(r));
}
inline ExprPtr div(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Div, std::move(l), std::move(r));
}
inline ExprPtr pow(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Pow, std::move(l), std::move(r));
}
inline ExprPtr neg(ExprPtr e) {
  return std::make_unique<UnOp>(UnOpKind::Neg, std::move(e));
}
inline ExprPtr lnot(ExprPtr e) {
  return std::make_unique<UnOp>(UnOpKind::Not, std::move(e));
}

inline ExprPtr eq(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Eq, std::move(l), std::move(r));
}
inline ExprPtr ne(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Ne, std::move(l), std::move(r));
}
inline ExprPtr lt(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Lt, std::move(l), std::move(r));
}
inline ExprPtr le(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Le, std::move(l), std::move(r));
}
inline ExprPtr gt(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Gt, std::move(l), std::move(r));
}
inline ExprPtr ge(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Ge, std::move(l), std::move(r));
}
inline ExprPtr land(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::And, std::move(l), std::move(r));
}
inline ExprPtr lor(ExprPtr l, ExprPtr r) {
  return bin(BinOpKind::Or, std::move(l), std::move(r));
}

inline ExprPtr call(const std::string& name, std::vector<ExprPtr> args,
                    Type t = Type::real()) {
  return std::make_unique<FuncCall>(name, std::move(args), t);
}

}  // namespace polaris::ib
