#include "ir/expr.h"

#include <cmath>
#include <ostream>
#include <sstream>

#include "support/string_util.h"

namespace polaris {

bool is_comparison(BinOpKind k) {
  switch (k) {
    case BinOpKind::Eq: case BinOpKind::Ne: case BinOpKind::Lt:
    case BinOpKind::Le: case BinOpKind::Gt: case BinOpKind::Ge:
      return true;
    default:
      return false;
  }
}

bool is_arithmetic(BinOpKind k) {
  switch (k) {
    case BinOpKind::Add: case BinOpKind::Sub: case BinOpKind::Mul:
    case BinOpKind::Div: case BinOpKind::Pow:
      return true;
    default:
      return false;
  }
}

std::string binop_spelling(BinOpKind k) {
  switch (k) {
    case BinOpKind::Add: return "+";
    case BinOpKind::Sub: return "-";
    case BinOpKind::Mul: return "*";
    case BinOpKind::Div: return "/";
    case BinOpKind::Pow: return "**";
    case BinOpKind::Eq: return ".eq.";
    case BinOpKind::Ne: return ".ne.";
    case BinOpKind::Lt: return ".lt.";
    case BinOpKind::Le: return ".le.";
    case BinOpKind::Gt: return ".gt.";
    case BinOpKind::Ge: return ".ge.";
    case BinOpKind::And: return ".and.";
    case BinOpKind::Or: return ".or.";
  }
  p_unreachable("bad BinOpKind");
}

namespace {
/// Operator precedence for printing with minimal parentheses.
int precedence(const Expression& e) {
  switch (e.kind()) {
    case ExprKind::BinOp:
      switch (static_cast<const BinOp&>(e).op()) {
        case BinOpKind::Or: return 1;
        case BinOpKind::And: return 2;
        case BinOpKind::Eq: case BinOpKind::Ne: case BinOpKind::Lt:
        case BinOpKind::Le: case BinOpKind::Gt: case BinOpKind::Ge:
          return 3;
        case BinOpKind::Add: case BinOpKind::Sub: return 4;
        case BinOpKind::Mul: case BinOpKind::Div: return 5;
        case BinOpKind::Pow: return 6;
      }
      return 0;
    case ExprKind::UnOp:
      return static_cast<const UnOp&>(e).op() == UnOpKind::Neg ? 4 : 2;
    default:
      return 100;  // atoms never need parens
  }
}

void print_child(std::ostream& os, const Expression& parent,
                 const Expression& child, bool right_side) {
  int pp = precedence(parent);
  int cp = precedence(child);
  // '**' is right-associative: a**b**c means a**(b**c), so the *left*
  // child needs parentheses at equal precedence, not the right one.
  bool parent_is_pow =
      parent.kind() == ExprKind::BinOp &&
      static_cast<const BinOp&>(parent).op() == BinOpKind::Pow;
  bool parens =
      cp < pp || (cp == pp && (parent_is_pow ? !right_side : right_side));
  if (parens) os << "(";
  child.print(os);
  if (parens) os << ")";
}

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}
}  // namespace

std::string Expression::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

bool Expression::equals(const Expression& other) const {
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case ExprKind::IntConst:
      return static_cast<const IntConst&>(*this).value() ==
             static_cast<const IntConst&>(other).value();
    case ExprKind::RealConst: {
      const auto& a = static_cast<const RealConst&>(*this);
      const auto& b = static_cast<const RealConst&>(other);
      return a.value() == b.value() && a.is_double() == b.is_double();
    }
    case ExprKind::LogicalConst:
      return static_cast<const LogicalConst&>(*this).value() ==
             static_cast<const LogicalConst&>(other).value();
    case ExprKind::StringConst:
      return static_cast<const StringConst&>(*this).value() ==
             static_cast<const StringConst&>(other).value();
    case ExprKind::VarRef:
      return static_cast<const VarRef&>(*this).symbol() ==
             static_cast<const VarRef&>(other).symbol();
    case ExprKind::ArrayRef: {
      const auto& a = static_cast<const ArrayRef&>(*this);
      const auto& b = static_cast<const ArrayRef&>(other);
      if (a.symbol() != b.symbol() || a.rank() != b.rank()) return false;
      for (int i = 0; i < a.rank(); ++i)
        if (!a.subscripts()[i]->equals(*b.subscripts()[i])) return false;
      return true;
    }
    case ExprKind::BinOp: {
      const auto& a = static_cast<const BinOp&>(*this);
      const auto& b = static_cast<const BinOp&>(other);
      return a.op() == b.op() && a.left().equals(b.left()) &&
             a.right().equals(b.right());
    }
    case ExprKind::UnOp: {
      const auto& a = static_cast<const UnOp&>(*this);
      const auto& b = static_cast<const UnOp&>(other);
      return a.op() == b.op() && a.operand().equals(b.operand());
    }
    case ExprKind::FuncCall: {
      const auto& a = static_cast<const FuncCall&>(*this);
      const auto& b = static_cast<const FuncCall&>(other);
      if (a.name() != b.name() || a.args().size() != b.args().size())
        return false;
      for (size_t i = 0; i < a.args().size(); ++i)
        if (!a.args()[i]->equals(*b.args()[i])) return false;
      return true;
    }
  }
  p_unreachable("bad ExprKind");
}

std::size_t Expression::hash() const {
  std::size_t h = static_cast<std::size_t>(kind());
  switch (kind()) {
    case ExprKind::IntConst:
      return hash_combine(h, std::hash<std::int64_t>{}(
                                 static_cast<const IntConst&>(*this).value()));
    case ExprKind::RealConst:
      return hash_combine(h, std::hash<double>{}(
                                 static_cast<const RealConst&>(*this).value()));
    case ExprKind::LogicalConst:
      return hash_combine(
          h, static_cast<const LogicalConst&>(*this).value() ? 1u : 2u);
    case ExprKind::StringConst:
      return hash_combine(h, std::hash<std::string>{}(
                                 static_cast<const StringConst&>(*this).value()));
    case ExprKind::VarRef:
      return hash_combine(h, std::hash<int>{}(
                                 static_cast<const VarRef&>(*this).symbol()->id()));
    case ExprKind::ArrayRef: {
      const auto& a = static_cast<const ArrayRef&>(*this);
      h = hash_combine(h, std::hash<int>{}(a.symbol()->id()));
      for (const auto& s : a.subscripts()) h = hash_combine(h, s->hash());
      return h;
    }
    case ExprKind::BinOp: {
      const auto& b = static_cast<const BinOp&>(*this);
      h = hash_combine(h, static_cast<std::size_t>(b.op()));
      h = hash_combine(h, b.left().hash());
      return hash_combine(h, b.right().hash());
    }
    case ExprKind::UnOp: {
      const auto& u = static_cast<const UnOp&>(*this);
      h = hash_combine(h, static_cast<std::size_t>(u.op()));
      return hash_combine(h, u.operand().hash());
    }
    case ExprKind::FuncCall: {
      const auto& f = static_cast<const FuncCall&>(*this);
      h = hash_combine(h, std::hash<std::string>{}(f.name()));
      for (const auto& a : f.args()) h = hash_combine(h, a->hash());
      return h;
    }
  }
  p_unreachable("bad ExprKind");
}

bool Expression::contains(
    const std::function<bool(const Expression&)>& pred) const {
  if (pred(*this)) return true;
  for (const ExprPtr& c : children())
    if (c->contains(pred)) return true;
  return false;
}

bool Expression::references(const Symbol* sym) const {
  return contains([sym](const Expression& e) {
    if (e.kind() == ExprKind::VarRef)
      return static_cast<const VarRef&>(e).symbol() == sym;
    if (e.kind() == ExprKind::ArrayRef)
      return static_cast<const ArrayRef&>(e).symbol() == sym;
    return false;
  });
}

std::ostream& operator<<(std::ostream& os, const Expression& e) {
  e.print(os);
  return os;
}

// --- node implementations ---------------------------------------------------

ExprPtr IntConst::clone() const { return std::make_unique<IntConst>(value_); }
void IntConst::print(std::ostream& os) const {
  if (value_ < 0)
    os << "(" << value_ << ")";
  else
    os << value_;
}

ExprPtr RealConst::clone() const {
  return std::make_unique<RealConst>(value_, is_double_);
}
void RealConst::print(std::ostream& os) const {
  std::ostringstream tmp;
  tmp << value_;
  std::string s = tmp.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos)
    s += ".0";
  if (is_double_) {
    auto e = s.find('e');
    if (e != std::string::npos) s[e] = 'd';
    else s += "d0";
  }
  if (value_ < 0)
    os << "(" << s << ")";
  else
    os << s;
}

ExprPtr LogicalConst::clone() const {
  return std::make_unique<LogicalConst>(value_);
}
void LogicalConst::print(std::ostream& os) const {
  os << (value_ ? ".true." : ".false.");
}

ExprPtr StringConst::clone() const {
  return std::make_unique<StringConst>(value_);
}
void StringConst::print(std::ostream& os) const { os << "'" << value_ << "'"; }

ExprPtr VarRef::clone() const { return std::make_unique<VarRef>(sym_); }
void VarRef::print(std::ostream& os) const { os << sym_->name(); }

ArrayRef::ArrayRef(Symbol* sym, std::vector<ExprPtr> subs)
    : Expression(ExprKind::ArrayRef), sym_(sym), subs_(std::move(subs)) {
  p_assert(sym != nullptr);
  p_assert_msg(!subs_.empty(), "array reference with no subscripts");
  for (const auto& s : subs_) p_assert(s != nullptr);
}

ExprPtr ArrayRef::clone() const {
  std::vector<ExprPtr> subs;
  subs.reserve(subs_.size());
  for (const auto& s : subs_) subs.push_back(s->clone());
  return std::make_unique<ArrayRef>(sym_, std::move(subs));
}

void ArrayRef::print(std::ostream& os) const {
  os << sym_->name() << "(";
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (i) os << ",";
    subs_[i]->print(os);
  }
  os << ")";
}

BinOp::BinOp(BinOpKind op, ExprPtr l, ExprPtr r)
    : Expression(ExprKind::BinOp), op_(op), ops_{std::move(l), std::move(r)} {
  p_assert(ops_[0] != nullptr && ops_[1] != nullptr);
}

ExprPtr BinOp::clone() const {
  return std::make_unique<BinOp>(op_, ops_[0]->clone(), ops_[1]->clone());
}

Type BinOp::type() const {
  if (is_comparison(op_) || op_ == BinOpKind::And || op_ == BinOpKind::Or)
    return Type::logical();
  return Type::promote(ops_[0]->type(), ops_[1]->type());
}

void BinOp::print(std::ostream& os) const {
  print_child(os, *this, *ops_[0], false);
  os << binop_spelling(op_);
  print_child(os, *this, *ops_[1], true);
}

UnOp::UnOp(UnOpKind op, ExprPtr e)
    : Expression(ExprKind::UnOp), op_(op), operand_(std::move(e)) {
  p_assert(operand_ != nullptr);
}

ExprPtr UnOp::clone() const {
  return std::make_unique<UnOp>(op_, operand_->clone());
}

void UnOp::print(std::ostream& os) const {
  os << (op_ == UnOpKind::Neg ? "-" : ".not.");
  print_child(os, *this, *operand_, true);
}

FuncCall::FuncCall(std::string name, std::vector<ExprPtr> args,
                   Type result_type)
    : Expression(ExprKind::FuncCall),
      name_(to_lower(name)),
      args_(std::move(args)),
      result_type_(result_type) {
  for (const auto& a : args_) p_assert(a != nullptr);
}

ExprPtr FuncCall::clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->clone());
  return std::make_unique<FuncCall>(name_, std::move(args), result_type_);
}

void FuncCall::print(std::ostream& os) const {
  os << name_ << "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i) os << ",";
    args_[i]->print(os);
  }
  os << ")";
}

// --- generic walks ----------------------------------------------------------

void walk(const Expression& e,
          const std::function<void(const Expression&)>& fn) {
  fn(e);
  for (const ExprPtr& c : e.children()) walk(*c, fn);
}

void walk_slots(ExprPtr& root, const std::function<void(ExprPtr&)>& fn) {
  p_assert(root != nullptr);
  const Expression* before = root.get();
  fn(root);
  if (root.get() != before) return;  // replaced: do not descend
  for (ExprPtr& slot : root->children()) walk_slots(slot, fn);
}

int replace_var(ExprPtr& root, const Symbol* sym, const Expression& to) {
  int count = 0;
  walk_slots(root, [&](ExprPtr& slot) {
    if (slot->kind() == ExprKind::VarRef &&
        static_cast<const VarRef&>(*slot).symbol() == sym) {
      slot = to.clone();
      ++count;
    }
  });
  return count;
}

void remap_symbols(Expression& e, const SymbolMap<Symbol*>& map) {
  if (e.kind() == ExprKind::VarRef) {
    auto& v = static_cast<VarRef&>(e);
    auto it = map.find(v.symbol());
    if (it != map.end()) v.set_symbol(it->second);
  } else if (e.kind() == ExprKind::ArrayRef) {
    auto& a = static_cast<ArrayRef&>(e);
    auto it = map.find(a.symbol());
    if (it != map.end()) a.set_symbol(it->second);
  }
  for (ExprPtr& slot : e.children()) remap_symbols(*slot, map);
}

}  // namespace polaris
