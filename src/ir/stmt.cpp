#include "ir/stmt.h"

#include <atomic>
#include <ostream>
#include <sstream>

#include "support/string_util.h"

namespace polaris {

namespace {
std::atomic<int> g_next_stmt_id{1};
}

Statement::Statement(StmtKind k) : kind_(k), id_(g_next_stmt_id.fetch_add(1)) {}

std::string Statement::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Statement& s) {
  s.print(os);
  return os;
}

// --- AssignStmt ---------------------------------------------------------------

AssignStmt::AssignStmt(ExprPtr lhs, ExprPtr rhs)
    : Statement(StmtKind::Assign), slots_{std::move(lhs), std::move(rhs)} {
  p_assert(slots_[0] != nullptr && slots_[1] != nullptr);
  p_assert_msg(slots_[0]->kind() == ExprKind::VarRef ||
                   slots_[0]->kind() == ExprKind::ArrayRef,
               "assignment target must be a variable or array element");
}

Symbol* AssignStmt::target() const {
  if (lhs().kind() == ExprKind::VarRef)
    return static_cast<const VarRef&>(lhs()).symbol();
  return static_cast<const ArrayRef&>(lhs()).symbol();
}

StmtPtr AssignStmt::clone() const {
  auto s = std::make_unique<AssignStmt>(lhs().clone(), rhs().clone());
  s->set_label(label());
  s->reduction_flag = reduction_flag;
  return s;
}

void AssignStmt::print(std::ostream& os) const {
  os << lhs() << " = " << rhs();
}

// --- DoStmt -------------------------------------------------------------------

DoStmt::DoStmt(Symbol* index, ExprPtr init, ExprPtr limit, ExprPtr step)
    : Statement(StmtKind::Do),
      index_(index),
      slots_{std::move(init), std::move(limit), std::move(step)} {
  p_assert(index_ != nullptr);
  p_assert(slots_[0] != nullptr && slots_[1] != nullptr);
  if (!slots_[2]) slots_[2] = std::make_unique<IntConst>(1);
}

std::string DoStmt::loop_name() const {
  if (label() != 0) return "do_" + std::to_string(label());
  return "do#" + std::to_string(id());
}

StmtPtr DoStmt::clone() const {
  auto s = std::make_unique<DoStmt>(index_, init().clone(), limit().clone(),
                                    step().clone());
  s->set_label(label());
  s->par = par;
  return s;
}

void DoStmt::print(std::ostream& os) const {
  os << "do " << index_->name() << " = " << init() << ", " << limit();
  const bool unit_step = step().kind() == ExprKind::IntConst &&
                         static_cast<const IntConst&>(step()).value() == 1;
  if (!unit_step) os << ", " << step();
}

// --- EndDoStmt ------------------------------------------------------------------

StmtPtr EndDoStmt::clone() const {
  auto s = std::make_unique<EndDoStmt>();
  s->set_label(label());
  return s;
}

void EndDoStmt::print(std::ostream& os) const { os << "end do"; }

// --- If family ------------------------------------------------------------------

IfStmt::IfStmt(ExprPtr cond) : Statement(StmtKind::If), cond_(std::move(cond)) {
  p_assert(cond_ != nullptr);
}

StmtPtr IfStmt::clone() const {
  auto s = std::make_unique<IfStmt>(cond_->clone());
  s->set_label(label());
  return s;
}

void IfStmt::print(std::ostream& os) const {
  os << "if (" << *cond_ << ") then";
}

ElseIfStmt::ElseIfStmt(ExprPtr cond)
    : Statement(StmtKind::ElseIf), cond_(std::move(cond)) {
  p_assert(cond_ != nullptr);
}

StmtPtr ElseIfStmt::clone() const {
  auto s = std::make_unique<ElseIfStmt>(cond_->clone());
  s->set_label(label());
  return s;
}

void ElseIfStmt::print(std::ostream& os) const {
  os << "else if (" << *cond_ << ") then";
}

StmtPtr ElseStmt::clone() const {
  auto s = std::make_unique<ElseStmt>();
  s->set_label(label());
  return s;
}

void ElseStmt::print(std::ostream& os) const { os << "else"; }

StmtPtr EndIfStmt::clone() const {
  auto s = std::make_unique<EndIfStmt>();
  s->set_label(label());
  return s;
}

void EndIfStmt::print(std::ostream& os) const { os << "end if"; }

// --- control statements -----------------------------------------------------

StmtPtr GotoStmt::clone() const {
  auto s = std::make_unique<GotoStmt>(target_);
  s->set_label(label());
  return s;
}

void GotoStmt::print(std::ostream& os) const { os << "goto " << target_; }

StmtPtr ContinueStmt::clone() const {
  auto s = std::make_unique<ContinueStmt>();
  s->set_label(label());
  return s;
}

void ContinueStmt::print(std::ostream& os) const { os << "continue"; }

// --- CallStmt -----------------------------------------------------------------

CallStmt::CallStmt(std::string name, std::vector<ExprPtr> args)
    : Statement(StmtKind::Call),
      name_(to_lower(name)),
      args_(std::move(args)) {
  for (const auto& a : args_) p_assert(a != nullptr);
}

StmtPtr CallStmt::clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->clone());
  auto s = std::make_unique<CallStmt>(name_, std::move(args));
  s->set_label(label());
  return s;
}

void CallStmt::print(std::ostream& os) const {
  os << "call " << name_ << "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i) os << ",";
    os << *args_[i];
  }
  os << ")";
}

// --- Return / Stop -----------------------------------------------------------

StmtPtr ReturnStmt::clone() const {
  auto s = std::make_unique<ReturnStmt>();
  s->set_label(label());
  return s;
}

void ReturnStmt::print(std::ostream& os) const { os << "return"; }

StmtPtr StopStmt::clone() const {
  auto s = std::make_unique<StopStmt>();
  s->set_label(label());
  return s;
}

void StopStmt::print(std::ostream& os) const { os << "stop"; }

// --- PrintStmt -----------------------------------------------------------------

PrintStmt::PrintStmt(std::vector<ExprPtr> items)
    : Statement(StmtKind::Print), items_(std::move(items)) {
  for (const auto& i : items_) p_assert(i != nullptr);
}

StmtPtr PrintStmt::clone() const {
  std::vector<ExprPtr> items;
  items.reserve(items_.size());
  for (const auto& i : items_) items.push_back(i->clone());
  auto s = std::make_unique<PrintStmt>(std::move(items));
  s->set_label(label());
  return s;
}

void PrintStmt::print(std::ostream& os) const {
  os << "print *";
  for (const auto& i : items_) os << ", " << *i;
}

// --- CommentStmt ----------------------------------------------------------------

StmtPtr CommentStmt::clone() const {
  auto s = std::make_unique<CommentStmt>(text_);
  s->set_label(label());
  return s;
}

void CommentStmt::print(std::ostream& os) const { os << "!" << text_; }

}  // namespace polaris
