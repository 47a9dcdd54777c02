// The slot contract: Expression::children() and Statement::expr_slots()
// are views over each node's own operands, in operand order, and every
// traversal built on them allocates nothing.
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "driver/pass_manager.h"
#include "ir/build.h"
#include "ir/program.h"
#include "ir/stmt.h"
#include "parser/parser.h"
#include "suite/suite.h"

// Allocation counting.  This binary replaces every non-aligned global
// operator new/delete with malloc/free (consistently, so sanitizers see
// matched pairs); allocations are counted only while an AllocationScope
// is open on the calling thread.
namespace {
thread_local bool t_counting = false;
thread_local long t_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace polaris {
namespace {

class AllocationScope {
 public:
  AllocationScope() {
    t_allocations = 0;
    t_counting = true;
  }
  ~AllocationScope() { t_counting = false; }
  long allocations() const { return t_allocations; }
};

TEST(AllocationScope, CountsOnlyInsideTheScope) {
  // Direct operator new calls, which the compiler may not elide.
  void* outside = ::operator new(8);
  long inside_count = 0;
  {
    AllocationScope scope;
    void* inside = ::operator new(8);
    inside_count = scope.allocations();
    ::operator delete(inside);
  }
  ::operator delete(outside);
  EXPECT_EQ(inside_count, 1);
}

class SlotTest : public ::testing::Test {
 protected:
  SymbolTable symtab;
  Symbol* i = symtab.declare("i", Type::integer(), SymbolKind::Variable);
  Symbol* a = [this] {
    Symbol* s = symtab.declare("a", Type::real(), SymbolKind::Variable);
    std::vector<Dimension> dims;
    dims.emplace_back(nullptr, ib::ic(10));
    dims.emplace_back(nullptr, ib::ic(10));
    dims.emplace_back(nullptr, ib::ic(10));
    s->set_dims(std::move(dims));
    return s;
  }();

  static std::vector<ExprPtr> three(int base) {
    std::vector<ExprPtr> v;
    for (int k = 0; k < 3; ++k) v.push_back(ib::ic(base + k));
    return v;
  }

  /// One node of each kind, every operand a distinct leaf.
  ExprPtr sample(ExprKind k) {
    switch (k) {
      case ExprKind::IntConst: return ib::ic(1);
      case ExprKind::RealConst: return ib::rc(1.5);
      case ExprKind::LogicalConst: return ib::lc(true);
      case ExprKind::StringConst: return std::make_unique<StringConst>("s");
      case ExprKind::VarRef: return ib::var(i);
      case ExprKind::ArrayRef: return ib::aref(a, three(1));
      case ExprKind::BinOp: return ib::sub(ib::ic(1), ib::ic(2));
      case ExprKind::UnOp: return ib::neg(ib::ic(1));
      case ExprKind::FuncCall: return ib::call("max", three(1));
    }
    return nullptr;
  }

  /// The operands as the named accessors report them, in order.
  static std::vector<const Expression*> operands(const Expression& e) {
    std::vector<const Expression*> out;
    switch (e.kind()) {
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::LogicalConst:
      case ExprKind::StringConst:
      case ExprKind::VarRef:
        break;
      case ExprKind::ArrayRef:
        for (const auto& s : static_cast<const ArrayRef&>(e).subscripts())
          out.push_back(s.get());
        break;
      case ExprKind::BinOp:
        out.push_back(&static_cast<const BinOp&>(e).left());
        out.push_back(&static_cast<const BinOp&>(e).right());
        break;
      case ExprKind::UnOp:
        out.push_back(&static_cast<const UnOp&>(e).operand());
        break;
      case ExprKind::FuncCall:
        for (const auto& x : static_cast<const FuncCall&>(e).args())
          out.push_back(x.get());
        break;
    }
    return out;
  }

  /// One statement of each kind, every expression a distinct leaf.
  StmtPtr sample(StmtKind k) {
    switch (k) {
      case StmtKind::Assign:
        return std::make_unique<AssignStmt>(ib::var(i), ib::ic(2));
      case StmtKind::Do:
        return std::make_unique<DoStmt>(i, ib::ic(1), ib::ic(2), ib::ic(3));
      case StmtKind::EndDo: return std::make_unique<EndDoStmt>();
      case StmtKind::If: return std::make_unique<IfStmt>(ib::lc(true));
      case StmtKind::ElseIf: return std::make_unique<ElseIfStmt>(ib::lc(true));
      case StmtKind::Else: return std::make_unique<ElseStmt>();
      case StmtKind::EndIf: return std::make_unique<EndIfStmt>();
      case StmtKind::Goto: return std::make_unique<GotoStmt>(10);
      case StmtKind::Continue: return std::make_unique<ContinueStmt>();
      case StmtKind::Call: return std::make_unique<CallStmt>("f", three(1));
      case StmtKind::Return: return std::make_unique<ReturnStmt>();
      case StmtKind::Stop: return std::make_unique<StopStmt>();
      case StmtKind::Print: return std::make_unique<PrintStmt>(three(1));
      case StmtKind::Comment: return std::make_unique<CommentStmt>("c");
    }
    return nullptr;
  }

  static std::vector<const Expression*> operands(const Statement& s) {
    std::vector<const Expression*> out;
    switch (s.kind()) {
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        out = {&a.lhs(), &a.rhs()};
        break;
      }
      case StmtKind::Do: {
        const auto& d = static_cast<const DoStmt&>(s);
        out = {&d.init(), &d.limit(), &d.step()};
        break;
      }
      case StmtKind::If:
        out = {&static_cast<const IfStmt&>(s).cond()};
        break;
      case StmtKind::ElseIf:
        out = {&static_cast<const ElseIfStmt&>(s).cond()};
        break;
      case StmtKind::Call:
        for (const auto& x : static_cast<const CallStmt&>(s).args())
          out.push_back(x.get());
        break;
      case StmtKind::Print:
        for (const auto& x : static_cast<const PrintStmt&>(s).items())
          out.push_back(x.get());
        break;
      case StmtKind::EndDo:
      case StmtKind::Else:
      case StmtKind::EndIf:
      case StmtKind::Goto:
      case StmtKind::Continue:
      case StmtKind::Return:
      case StmtKind::Stop:
      case StmtKind::Comment:
        break;
    }
    return out;
  }
};

TEST_F(SlotTest, ExpressionSlotsAreTheOperandsInOrder) {
  const std::size_t expected[] = {0, 0, 0, 0, 0, 3, 2, 1, 3};
  for (int k = 0; k <= static_cast<int>(ExprKind::FuncCall); ++k) {
    SCOPED_TRACE(k);
    ExprPtr e = sample(static_cast<ExprKind>(k));
    std::vector<const Expression*> ops = operands(*e);
    ASSERT_EQ(ops.size(), expected[k]);
    std::span<ExprPtr> slots = e->children();
    std::span<const ExprPtr> view = std::as_const(*e).children();
    ASSERT_EQ(slots.size(), ops.size());
    ASSERT_EQ(view.size(), ops.size());
    for (std::size_t s = 0; s < ops.size(); ++s) {
      EXPECT_EQ(slots[s].get(), ops[s]);
      EXPECT_EQ(view[s].get(), ops[s]);
    }
    // Writing through a slot replaces what the named accessor returns.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      ExprPtr marker = ib::ic(100 + static_cast<int>(s));
      const Expression* m = marker.get();
      slots[s] = std::move(marker);
      EXPECT_EQ(operands(*e)[s], m);
    }
  }
}

TEST_F(SlotTest, StatementSlotsAreTheOperandsInOrder) {
  const std::size_t expected[] = {2, 3, 0, 1, 1, 0, 0, 0, 0, 3, 0, 0, 3, 0};
  for (int k = 0; k <= static_cast<int>(StmtKind::Comment); ++k) {
    SCOPED_TRACE(k);
    StmtPtr st = sample(static_cast<StmtKind>(k));
    std::vector<const Expression*> ops = operands(*st);
    ASSERT_EQ(ops.size(), expected[k]);
    std::span<ExprPtr> slots = st->expr_slots();
    std::span<const ExprPtr> view = std::as_const(*st).expressions();
    ASSERT_EQ(slots.size(), ops.size());
    ASSERT_EQ(view.size(), ops.size());
    for (std::size_t s = 0; s < ops.size(); ++s) {
      EXPECT_EQ(slots[s].get(), ops[s]);
      EXPECT_EQ(view[s].get(), ops[s]);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      // An assignment's lhs must stay a reference.
      ExprPtr marker = k == static_cast<int>(StmtKind::Assign) && s == 0
                           ? ib::var(i)
                           : ib::ic(100 + static_cast<int>(s));
      const Expression* m = marker.get();
      slots[s] = std::move(marker);
      EXPECT_EQ(operands(*st)[s], m);
    }
  }
}

TEST(SlotAllocation, TraversingTheCombinedSuiteAllocatesNothing) {
  auto program = parse_program(combined_suite_source());
  ASSERT_EQ(program->units().size(), 17u);
  long slots = 0, walked = 0, slot_walked = 0;
  IrSize size;
  // Built outside the scope: what is measured is the traversal.
  const std::function<void(const Expression&)> visit =
      [&](const Expression&) { ++walked; };
  const std::function<void(ExprPtr&)> visit_slot = [&](ExprPtr&) {
    ++slot_walked;
  };
  long allocations = 0;
  {
    AllocationScope scope;
    for (const auto& unit : program->units()) {
      for (Statement* s : unit->stmts()) {
        for (ExprPtr& slot : s->expr_slots()) {
          ++slots;
          walk_slots(slot, visit_slot);
        }
        for (const ExprPtr& e : std::as_const(*s).expressions())
          walk(*e, visit);
      }
      IrSize u = unit_ir_size(*unit);
      size.stmts += u.stmts;
      size.exprs += u.exprs;
    }
    allocations = scope.allocations();
  }
  EXPECT_EQ(allocations, 0);
  // The walks really covered the IR: every slot roots a tree.
  EXPECT_GT(slots, 0);
  EXPECT_GT(size.exprs, slots);
  EXPECT_EQ(walked, size.exprs);
  EXPECT_EQ(slot_walked, size.exprs);
}

}  // namespace
}  // namespace polaris
