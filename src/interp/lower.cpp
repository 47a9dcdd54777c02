// Lowering: builds a unit's Plan (lowered.h) at its first activation.
#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "dep/access.h"
#include "interp/interp.h"
#include "interp/lowered.h"

namespace polaris {

namespace {

/// What lowering knows of a value's kind.
enum class Kind : std::uint8_t { Int, Real, Logical, Unknown };

/// The kind of a value coerced to `t` (Value::coerce_to, Value::zero_of).
Kind kind_of(Type t) {
  if (t.is_integer()) return Kind::Int;
  if (t.is_logical()) return Kind::Logical;
  return Kind::Real;
}

Kind kind_of(const Value& v) {
  if (v.is_integer()) return Kind::Int;
  if (v.is_logical()) return Kind::Logical;
  return Kind::Real;
}

bool numeric(Kind k) { return k == Kind::Int || k == Kind::Real; }

/// The kind of + - * / ** (and mod, sign, max, min) over kinds a and b.
Kind arith_kind(Kind a, Kind b) {
  if (a == Kind::Int && b == Kind::Int) return Kind::Int;
  if (numeric(a) && numeric(b)) return Kind::Real;
  return Kind::Unknown;
}

/// The parser's canonical intrinsic names (aliases such as dsqrt are
/// already folded by canonical_intrinsic); nullopt for a user function.
std::optional<Intrinsic> find_intrinsic(const std::string& name) {
  static const std::unordered_map<std::string_view, Intrinsic> table = {
      {"abs", Intrinsic::Abs},     {"max", Intrinsic::Max},
      {"min", Intrinsic::Min},     {"mod", Intrinsic::Mod},
      {"sqrt", Intrinsic::Sqrt},   {"exp", Intrinsic::Exp},
      {"log", Intrinsic::Log},     {"log10", Intrinsic::Log10},
      {"sin", Intrinsic::Sin},     {"cos", Intrinsic::Cos},
      {"tan", Intrinsic::Tan},     {"atan", Intrinsic::Atan},
      {"atan2", Intrinsic::Atan2}, {"sign", Intrinsic::Sign},
      {"int", Intrinsic::Int},     {"nint", Intrinsic::Nint},
      {"real", Intrinsic::Real},   {"dble", Intrinsic::Dble},
      {"iand", Intrinsic::Iand},   {"ior", Intrinsic::Ior},
      {"ieor", Intrinsic::Ieor},
  };
  auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

/// The kind an intrinsic other than max/min returns over `args`.
Kind intrinsic_kind(Intrinsic k, const Kind* args) {
  switch (k) {
    case Intrinsic::Abs:
      return numeric(args[0]) ? args[0] : Kind::Unknown;
    case Intrinsic::Mod:
    case Intrinsic::Sign:
      return arith_kind(args[0], args[1]);
    case Intrinsic::Int:
    case Intrinsic::Nint:
    case Intrinsic::Iand:
    case Intrinsic::Ior:
    case Intrinsic::Ieor:
      return Kind::Int;
    default:
      return Kind::Real;
  }
}

/// A binary operator's charge and its ops: tag-checked, for two certain
/// integers, for two certain reals.
struct BinOpCodes {
  std::uint64_t CostModel::*charge;
  OpCode generic, ints, reals;
};

const BinOpCodes& codes_of(BinOpKind k) {
  static const BinOpCodes table[] = {  // in BinOpKind order
      {&CostModel::add, OpCode::Add, OpCode::AddI, OpCode::AddR},
      {&CostModel::add, OpCode::Sub, OpCode::SubI, OpCode::SubR},
      {&CostModel::mul, OpCode::Mul, OpCode::MulI, OpCode::MulR},
      {&CostModel::div, OpCode::Div, OpCode::DivI, OpCode::DivR},
      {&CostModel::pow, OpCode::Pow, OpCode::Pow, OpCode::Pow},
      {&CostModel::add, OpCode::Eq, OpCode::EqI, OpCode::EqR},
      {&CostModel::add, OpCode::Ne, OpCode::NeI, OpCode::NeR},
      {&CostModel::add, OpCode::Lt, OpCode::LtI, OpCode::LtR},
      {&CostModel::add, OpCode::Le, OpCode::LeI, OpCode::LeR},
      {&CostModel::add, OpCode::Gt, OpCode::GtI, OpCode::GtR},
      {&CostModel::add, OpCode::Ge, OpCode::GeI, OpCode::GeR},
      {&CostModel::add, OpCode::And, OpCode::And, OpCode::And},
      {&CostModel::add, OpCode::Or, OpCode::Or, OpCode::Or},
  };
  return table[static_cast<std::size_t>(k)];
}

/// Ops that touch neither a frame nor a callee: a PARAMETER's code made
/// only of these folds to a constant.  The `V` binary ops read the frame.
bool pure(OpCode c) {
  switch (c) {
#define POLARIS_READS_FRAME(X, name) case OpCode::name##V:
    POLARIS_BINARY_OPCODES(POLARIS_READS_FRAME, _)
#undef POLARIS_READS_FRAME
    case OpCode::LoadVar:
    case OpCode::CheckArray:
    case OpCode::LoadElem:
    case OpCode::LoadElem1:
    case OpCode::LoadElem2:
    case OpCode::ElemIndex:
    case OpCode::StoreVar:
    case OpCode::StoreElem:
    case OpCode::StoreElem1:
    case OpCode::StoreElem2:
    case OpCode::Fail:
    case OpCode::UserCall:
      return false;
    default:
      return true;
  }
}

Op op_of(OpCode code, Symbol* sym = nullptr, std::uint16_t n = 0) {
  Op op;
  op.code = code;
  op.sym = sym;
  op.n = n;
  return op;
}

}  // namespace

/// Builds one unit's Plan.  Bound and DATA code is lowered for a frame
/// still being initialized; the statements for a complete frame, where
/// every Variable of the unit is bound and an array's binding check can
/// be decided here.
class Lowerer {
 public:
  Lowerer(Interpreter& interp, ProgramUnit& unit, Plan& plan)
      : interp_(interp), costs_(interp.costs_), unit_(unit), plan_(plan) {}

  void build() {
    find_aliases();
    const auto& symbols = unit_.symtab().symbols();
    unbound_ = static_cast<std::uint32_t>(symbols.size());
    plan_.slots = symbols.size() + 1;
    plan_.symbols.resize(symbols.size());
    for (Symbol* sym : symbols) {
      if (sym->kind() != SymbolKind::Variable) continue;
      Plan::SymbolCode& code =
          plan_.symbols[static_cast<std::size_t>(sym->slot())];
      for (const Dimension& dim : sym->dims()) {
        code.lower.push_back(dim.lower ? lower_value(*dim.lower) : Code{});
        code.upper.push_back(dim.upper ? lower_value(*dim.upper) : Code{});
      }
      for (const ExprPtr& v : sym->data_values())
        code.data.push_back(lower_value(*v));
    }

    complete_frame_ = true;
    for (Statement* s = unit_.stmts().first(); s != nullptr; s = s->next()) {
      position_.emplace(s, stmts_.size());
      stmts_.push_back(s);
      if (s->kind() == StmtKind::Do) add_loop(static_cast<DoStmt*>(s));
    }
    entry_.resize(stmts_.size());
    dispatch_.resize(stmts_.size());
    do_entry_.resize(plan_.loops.size());
    Code& c = plan_.body;
    for (std::size_t at = 0; at < stmts_.size(); ++at) {
      entry_[at] = dispatch_[at] = c.ops.size();
      depth_ = 0;
      lower_statement(at, c);
    }
    emit(c, op_of(OpCode::Return), 0, 0);
    c.charge = 0;  // each statement carries its own
    for (const Fixup& f : fixups_)
      c.ops[f.op].jump =
          distance(f.op, f.dispatch ? dispatch_[f.stmt] : entry_[f.stmt]);
  }

 private:
  // --- statements ---------------------------------------------------------
  //
  // Each statement starts with its statement op, at its entry: where
  // sequential flow and a GOTO reach it.  An IF chain's arms have a second
  // entry, where a false condition before them jumps: an ELSE IF's
  // condition (its charge, not a statement), the first statement of an
  // ELSE's body, or the statement after an END IF.  An END DO is its DO
  // next op alone and counts no statement.

  void add_loop(DoStmt* d) {
    auto loop = std::make_unique<LoopSite>();
    loop->stmt = d;
    loop->slot = static_cast<std::uint32_t>(plan_.loops.size());
    loop->index = slot_of(d->index());
    loop->parallel = d->par.is_parallel || d->par.speculative;
    if (d->par.speculative) {
      for (const auto& [array, refs] : collect_array_accesses(d))
        if (std::any_of(refs.begin(), refs.end(),
                        [](const ArrayAccess& a) { return a.is_write; }))
          loop->written.push_back(array);
      loop->assigned = scalars_assigned(d);
    }
    loop_of_.emplace(d, loop.get());
    plan_.loops.push_back(std::move(loop));
  }

  void lower_statement(std::size_t at, Code& c) {
    Statement* s = stmts_[at];
    switch (s->kind()) {
      case StmtKind::Assign: {
        auto* a = static_cast<AssignStmt*>(s);
        statement(c, [&] { lower_assign(*a, c); },
                  a->reduction_flag != ReductionKind::None
                      ? OpCode::ReductionStmt
                      : OpCode::Stmt);
        return;
      }
      case StmtKind::Do: {
        auto* d = static_cast<DoStmt*>(s);
        statement(c, [&] {
          for (const Expression* e : {&d->init(), &d->limit(), &d->step()})
            if (lower(*e, c) != Kind::Int) emit(c, op_of(OpCode::ToInt), 1, 1);
        });
        const LoopSite* loop = loop_of_.at(d);
        do_entry_[loop->slot] = c.ops.size();
        Op op = op_of(OpCode::DoEntry);
        op.loop = loop;
        emit(c, op, 3, 0);  // its jump is set at the END DO
        return;
      }
      case StmtKind::EndDo: {
        LoopSite* loop = loop_of_.at(static_cast<EndDoStmt*>(s)->header());
        const std::size_t entry = do_entry_[loop->slot];
        const std::size_t next = c.ops.size();
        // A body that starts with a statement op (any body but an empty
        // one) has it run by the DoNext that continues the loop.
        Op op = op_of(OpCode::DoNext);
        loop->empty = entry + 1 == next;
        if (!loop->empty) {
          const OpCode first = c.ops[entry + 1].code;
          if (first == OpCode::Stmt) op.code = OpCode::DoNextStmt;
          if (first == OpCode::ReductionStmt)
            op.code = OpCode::DoNextReductionStmt;
        }
        op.loop_slot = loop->slot;
        op.jump = distance(next, entry + 1);
        emit(c, op, 0, 0);
        c.ops[entry].jump = distance(entry, next + 1);
        return;
      }
      case StmtKind::If: {
        auto* i = static_cast<IfStmt*>(s);
        statement(c, [&] { condition(i->cond(), i->next_arm(), c); });
        return;
      }
      case StmtKind::ElseIf: {
        // By sequential flow the previous arm completed: on to the END IF.
        auto* i = static_cast<ElseIfStmt*>(s);
        statement(c, [] {});
        jump(c, op_of(OpCode::Jump), i->end(), false, 0);
        dispatch_[at] = c.ops.size();
        statement(c, [&] { condition(i->cond(), i->next_arm(), c); },
                  OpCode::Charge);
        return;
      }
      case StmtKind::Else:
        statement(c, [] {});
        jump(c, op_of(OpCode::Jump), static_cast<ElseStmt*>(s)->end(), false,
             0);
        dispatch_[at] = c.ops.size();
        return;
      case StmtKind::EndIf:
        statement(c, [] {});
        dispatch_[at] = c.ops.size();
        return;
      case StmtKind::Goto:
        statement(c, [&] { c.charge += costs_.branch; });
        lower_goto(*static_cast<GotoStmt*>(s), c);
        return;
      case StmtKind::Continue:
      case StmtKind::Comment:
        statement(c, [] {});
        return;
      case StmtKind::Call: {
        auto* call = static_cast<CallStmt*>(s);
        statement(c, [] {});
        plan_.calls.push_back(
            lower_call(call->name(), UnitKind::Subroutine, call->args()));
        Op op = op_of(OpCode::Call);
        op.call = plan_.calls.back().get();
        emit(c, op, 0, 0);
        return;
      }
      case StmtKind::Return:
        statement(c, [] {});
        emit(c, op_of(OpCode::Return), 0, 0);
        return;
      case StmtKind::Stop:
        statement(c, [] {});
        emit(c, op_of(OpCode::Stop), 0, 0);
        return;
      case StmtKind::Print: {
        auto site = std::make_unique<PrintSite>();
        statement(c, [&] {
          for (const ExprPtr& item : static_cast<PrintStmt*>(s)->items()) {
            if (item->kind() == ExprKind::StringConst) {
              site->items.push_back(
                  &static_cast<const StringConst&>(*item).value());
              continue;
            }
            site->items.push_back(nullptr);
            lower(*item, c);
            ++site->values;
          }
        });
        Op op = op_of(OpCode::Print);
        op.print = site.get();
        const std::size_t values = site->values;
        plan_.prints.push_back(std::move(site));
        emit(c, op, values, 0);
        return;
      }
    }
    p_unreachable("bad statement kind");
  }

  /// Emits a statement op (or a Charge op) carrying the charge of what
  /// `body` lowers.
  template <typename Body>
  void statement(Code& c, const Body& body, OpCode code = OpCode::Stmt) {
    const std::size_t at = c.ops.size();
    emit(c, op_of(code), 0, 0);
    const std::uint64_t before = c.charge;
    body();
    c.ops[at].charge = c.charge - before;
  }

  /// An IF or ELSE IF condition, with its branch charge: on to the arm's
  /// body when true, to the next arm's second entry when false.
  void condition(const Expression& cond, const Statement* next_arm, Code& c) {
    c.charge += costs_.branch;
    lower(cond, c);
    jump(c, op_of(OpCode::JumpFalse), next_arm, true, 1);
  }

  /// A GOTO: a jump, through a Leave op when it leaves DO bodies.  A GOTO
  /// into a DO body from outside it has no iteration to join.
  void lower_goto(const GotoStmt& g, Code& c) {
    const Statement* target = unit_.stmts().find_label(g.target());
    if (target == nullptr) {
      fail(c, "target != nullptr", "GOTO to unknown label");
      return;
    }
    const std::vector<const DoStmt*> from = holding(&g), to = holding(target);
    auto in = [](const std::vector<const DoStmt*>& loops, const DoStmt* d) {
      return std::find(loops.begin(), loops.end(), d) != loops.end();
    };
    for (const DoStmt* d : to)
      if (!in(from, d)) {
        fail(c, nullptr, "GOTO into the body of " + d->loop_name());
        return;
      }
    auto leave = std::make_unique<LeaveSite>();
    for (const DoStmt* d : from)
      if (!in(to, d)) leave->loops.push_back(loop_of_.at(d));
    if (leave->loops.empty()) {
      jump(c, op_of(OpCode::Jump), target, false, 0);
      return;
    }
    plan_.leaves.push_back(std::move(leave));
    Op op = op_of(OpCode::Leave);
    op.leave = plan_.leaves.back().get();
    jump(c, op, target, false, 0);
  }

  /// The DOs whose bodies hold `s`, innermost first (an END DO is in its
  /// own DO's body).
  static std::vector<const DoStmt*> holding(const Statement* s) {
    std::vector<const DoStmt*> loops;
    const DoStmt* d = s->kind() == StmtKind::EndDo
                          ? static_cast<const EndDoStmt*>(s)->header()
                          : s->outer();
    for (; d != nullptr; d = d->outer()) loops.push_back(d);
    return loops;
  }

  /// Emits `op`, a jump to statement `target`'s entry, or to its second
  /// entry (`dispatch`); the distance is set once every entry is known.
  void jump(Code& c, Op op, const Statement* target, bool dispatch,
            std::uint32_t pops) {
    auto it = position_.find(target);
    p_assert_msg(it != position_.end(), "jump out of the unit");
    fixups_.push_back({c.ops.size(), it->second, dispatch});
    emit(c, op, pops, 0);
  }

  static std::int32_t distance(std::size_t from, std::size_t to) {
    return static_cast<std::int32_t>(static_cast<std::int64_t>(to) -
                                     static_cast<std::int64_t>(from));
  }

  // --- code building ----------------------------------------------------

  void emit(Code& c, const Op& op, std::uint32_t pops, std::uint32_t pushes) {
    c.ops.push_back(op);
    depth_ = depth_ - pops + pushes;
    c.depth = std::max(c.depth, depth_);
  }

  /// Emits a Fail op raising InternalError(cond, msg), or UserError(msg)
  /// for a null `cond`; it stands for one value.
  void fail(Code& c, const char* cond, std::string msg) {
    plan_.fails.push_back(
        std::make_unique<FailSite>(FailSite{cond, std::move(msg)}));
    Op op = op_of(OpCode::Fail);
    op.fail = plan_.fails.back().get();
    emit(c, op, 0, 1);
  }

  /// Runs `build` on a fresh Code with its own stack depth, and ends it.
  template <typename Build>
  Code code(const Build& build) {
    Code c;
    const std::uint32_t saved = depth_;
    depth_ = 0;
    build(c);
    c.ops.push_back(op_of(OpCode::End));
    depth_ = saved;
    return c;
  }

  Code lower_value(const Expression& e) {
    return code([&](Code& c) { lower(e, c); });
  }

  /// The right-hand side, then the store with its `mem` charge.
  void lower_assign(const AssignStmt& a, Code& c) {
    c.charge += costs_.mem;
    const Kind value = lower(a.rhs(), c);
    const Expression& lhs = a.lhs();
    if (lhs.kind() == ExprKind::VarRef) {
      Symbol* sym = static_cast<const VarRef&>(lhs).symbol();
      Op op = operand(OpCode::StoreVar, sym);
      op.same = value == kind_of(sym->type());
      emit(c, op, 1, 0);
      return;
    }
    const auto& ref = static_cast<const ArrayRef&>(lhs);
    Op op = operand(OpCode::StoreElem, ref.symbol(),
                    static_cast<std::uint16_t>(ref.rank()));
    op.same = value == kind_of(ref.symbol()->type());
    element_access(ref, c, op);
  }

  /// An operand op: `sym` and its frame slot.
  Op operand(OpCode code, Symbol* sym, std::uint16_t n = 0) const {
    Op op = op_of(code, sym, n);
    op.slot = slot_of(sym);
    return op;
  }

  /// `sym`'s frame slot, or the one no symbol binds for a symbol of
  /// another unit.
  std::uint32_t slot_of(const Symbol* sym) const {
    return in_unit(sym) ? static_cast<std::uint32_t>(sym->slot()) : unbound_;
  }

  /// Emits element access `op` (LoadElem or StoreElem, of rank `n`) after
  /// what precedes it: the binding check where it can fail, then
  /// subscripts().  At rank 1 and 2, subscripts that lowered to an integer
  /// scalar local's load, alone or plus or minus a constant, are folded
  /// in: the fused access (LoadElem1, StoreElem2, ...) reads each from its
  /// frame slot and adds the constant, with the charge of the ops it
  /// replaces.  False (after a Fail, and no access) when the rank is above
  /// 7.
  bool element_access(const ArrayRef& ref, Code& c, Op op) {
    const bool store = op.code == OpCode::StoreElem;
    if (!bound_array(ref.symbol()))
      emit(c, operand(OpCode::CheckArray, ref.symbol(), store ? 1 : 0), 0, 0);
    const std::size_t first = c.ops.size();
    const std::uint32_t depth = c.depth;
    if (!subscripts(ref, c)) return false;
    const auto rank = static_cast<std::uint32_t>(ref.subscripts().size());
    std::uint32_t pops = (store ? 1 : 0) + rank;
    if ((rank == 1 || rank == 2) && fold_subscripts(c, first, rank, op)) {
      c.ops.resize(first);
      depth_ -= rank;
      c.depth = depth;
      pops -= rank;
      const bool one = rank == 1;
      op.code = store ? (one ? OpCode::StoreElem1 : OpCode::StoreElem2)
                      : (one ? OpCode::LoadElem1 : OpCode::LoadElem2);
    }
    emit(c, op, pops, store ? 0 : 1);
    return true;
  }

  /// Whether the ops from `first` on are `rank` subscripts, each an integer
  /// scalar local's LoadVar, alone or followed by one AddIC or SubIC whose
  /// constant (negated for SubIC) fits in 32 bits; if so, sets `op`'s
  /// index to their slots and constants.  AddIC follows only a certainly
  /// integer left operand and a SubIC's negated constant adds what it
  /// subtracts, so the fused access's int_add gives the value they push.
  bool fold_subscripts(const Code& c, std::size_t first, std::uint32_t rank,
                       Op& op) const {
    std::size_t at = first;
    for (std::uint32_t d = 0; d < rank; ++d) {
      if (at == c.ops.size() || c.ops[at].code != OpCode::LoadVar ||
          !integer_scalar_local(c.ops[at].sym))
        return false;
      op.index[d] = {c.ops[at].slot, 0};
      ++at;
      if (at == c.ops.size()) continue;
      const Op& step = c.ops[at];
      if (step.code != OpCode::AddIC && step.code != OpCode::SubIC) continue;
      const std::int64_t k = step.imm.int_unchecked();
      if (k == INT64_MIN) return false;  // -k has no int64 value
      const std::int64_t offset = step.code == OpCode::AddIC ? k : -k;
      if (offset < INT32_MIN || offset > INT32_MAX) return false;
      op.index[d].offset = static_cast<std::int32_t>(offset);
      ++at;
    }
    return at == c.ops.size();
  }

  /// Whether `sym` is a scalar local of integer type in statement code.
  /// init_frame binds such a local (outside COMMON, not a dummy, not an
  /// array) to a scalar cell before any statement runs, and stable() makes
  /// its value certainly an integer, so an op can read it from its slot
  /// without LoadVar's binding check.  Being stable alone is not enough: a
  /// stable local can be an array.
  bool integer_scalar_local(const Symbol* sym) const {
    return complete_frame_ && stable(sym) && !sym->is_array() &&
           sym->type().is_integer();
  }

  /// Emits the rank check, then each subscript, made integer.  False
  /// (after a Fail) when the rank is above 7.
  bool subscripts(const ArrayRef& ref, Code& c) {
    if (ref.subscripts().size() > kMaxArrayRank) {
      fail(c, "exprs.size() <= kMaxArrayRank",
           "array rank above 7: " + ref.symbol()->name());
      return false;
    }
    for (const ExprPtr& sub : ref.subscripts())
      if (lower(*sub, c) != Kind::Int) emit(c, op_of(OpCode::ToInt), 1, 1);
    return true;
  }

  // --- expressions --------------------------------------------------------

  /// Appends `e`'s ops to `c` and adds its static charge; returns what is
  /// known of its value's kind.
  Kind lower(const Expression& e, Code& c) {
    switch (e.kind()) {
      case ExprKind::IntConst:
        return push_const(
            c, Value::integer(static_cast<const IntConst&>(e).value()));
      case ExprKind::RealConst:
        return push_const(
            c, Value::real(static_cast<const RealConst&>(e).value()));
      case ExprKind::LogicalConst:
        return push_const(
            c, Value::logical(static_cast<const LogicalConst&>(e).value()));
      case ExprKind::StringConst:
        fail(c, "false", "string value outside PRINT");
        return Kind::Unknown;
      case ExprKind::VarRef: {
        Symbol* sym = static_cast<const VarRef&>(e).symbol();
        if (sym->kind() == SymbolKind::Parameter)
          return lower_parameter(sym, c);
        emit(c, operand(OpCode::LoadVar, sym), 0, 1);
        c.charge += costs_.mem;
        return stable(sym) ? kind_of(sym->type()) : Kind::Unknown;
      }
      case ExprKind::ArrayRef: {
        const auto& ref = static_cast<const ArrayRef&>(e);
        const auto rank = static_cast<std::uint16_t>(ref.rank());
        if (!element_access(ref, c,
                            operand(OpCode::LoadElem, ref.symbol(), rank)))
          return Kind::Unknown;
        c.charge += costs_.mem;
        return stable(ref.symbol()) ? kind_of(ref.symbol()->type())
                                    : Kind::Unknown;
      }
      case ExprKind::BinOp:
        return lower_binop(static_cast<const BinOp&>(e), c);
      case ExprKind::UnOp: {
        const auto& u = static_cast<const UnOp&>(e);
        const Kind k = lower(u.operand(), c);
        c.charge += costs_.add;
        if (u.op() == UnOpKind::Not) {
          emit(c, op_of(OpCode::Not), 1, 1);
          return Kind::Logical;
        }
        emit(c, op_of(k == Kind::Int    ? OpCode::NegI
                      : k == Kind::Real ? OpCode::NegR
                                        : OpCode::Neg),
             1, 1);
        return numeric(k) ? k : Kind::Unknown;
      }
      case ExprKind::FuncCall:
        return lower_call_expr(static_cast<const FuncCall&>(e), c);
    }
    p_unreachable("bad expression kind");
  }

  Kind push_const(Code& c, Value v) {
    Op op = op_of(OpCode::Const);
    op.imm = v;
    emit(c, op, 0, 1);
    return kind_of(v);
  }

  /// A PARAMETER is its defining expression, coerced to its type, with
  /// that expression's charge.  One made of pure ops is folded to a
  /// constant; one whose evaluation fails is left to fail at run time.
  Kind lower_parameter(Symbol* sym, Code& c) {
    if (sym->param_value() == nullptr) {
      fail(c, "sym->param_value() != nullptr", "");
      return Kind::Unknown;
    }
    // A PARAMETER defined through itself has no value; the walk recursed
    // until the stack overflowed when such a reference was evaluated.
    if (std::find(parameters_.begin(), parameters_.end(), sym) !=
        parameters_.end()) {
      fail(c, nullptr, "PARAMETER " + sym->name() +
                           " is defined in terms of itself");
      return Kind::Unknown;
    }
    parameters_.push_back(sym);
    Code value = lower_value(*sym->param_value());
    parameters_.pop_back();
    c.charge += value.charge;
    if (std::all_of(value.ops.begin(), value.ops.end(),
                    [](const Op& op) { return pure(op.code); })) {
      try {
        return push_const(c, interp_.eval_pure(value).coerce_to(sym->type()));
      } catch (const std::exception&) {
        // Raised again, in order, when the reference is evaluated.
      }
    }
    c.depth = std::max(c.depth, depth_ + value.depth);
    c.ops.insert(c.ops.end(), value.ops.begin(), value.ops.end() - 1);
    depth_ += 1;
    emit(c, op_of(OpCode::Coerce, sym), 1, 1);
    return kind_of(sym->type());
  }

  Kind lower_binop(const BinOp& b, Code& c) {
    const Kind l = lower(b.left(), c);
    const std::size_t right = c.ops.size();
    const Kind r = lower(b.right(), c);
    const BinOpCodes& codes = codes_of(b.op());
    c.charge += costs_.*codes.charge;
    binary(c,
           l == Kind::Int && r == Kind::Int     ? codes.ints
           : l == Kind::Real && r == Kind::Real ? codes.reals
                                                : codes.generic,
           right);
    return is_arithmetic(b.op()) ? arith_kind(l, r) : Kind::Logical;
  }

  /// Emits binary op `code` over the value below its right operand and the
  /// right operand, lowered from op `right` on.  A right operand lowered
  /// to exactly one Const or LoadVar is folded in: the fused op takes it
  /// from its imm or its slot.
  void binary(Code& c, OpCode code, std::size_t right) {
    if (c.ops.size() == right + 1 && (c.ops.back().code == OpCode::Const ||
                                      c.ops.back().code == OpCode::LoadVar)) {
      Op op = c.ops.back();
      c.ops.pop_back();
      depth_ -= 1;
      op.code = fused_binary(code, op.code);
      emit(c, op, 1, 1);
      return;
    }
    emit(c, op_of(code), 2, 1);
  }

  Kind lower_call_expr(const FuncCall& f, Code& c) {
    const std::optional<Intrinsic> k = find_intrinsic(f.name());
    if (!k) {
      plan_.calls.push_back(lower_call(f.name(), UnitKind::Function, f.args()));
      Op op = op_of(OpCode::UserCall);
      op.call = plan_.calls.back().get();
      emit(c, op, 0, 1);
      return Kind::Unknown;
    }
    c.charge += costs_.intrinsic;
    const std::vector<ExprPtr>& exprs = f.args();
    if (*k == Intrinsic::Max || *k == Intrinsic::Min) {
      // Folded in argument order; the result is integer iff every
      // argument is.  The first argument's numeric check stays in place.
      if (exprs.size() < 2) {
        fail(c, "exprs.size() >= 2", "bad arity for " + f.name());
        return Kind::Unknown;
      }
      Kind kind = lower(*exprs[0], c);
      if (!numeric(kind)) emit(c, op_of(OpCode::CheckNum), 1, 1);
      for (std::size_t i = 1; i < exprs.size(); ++i) {
        const std::size_t right = c.ops.size();
        kind = arith_kind(kind, lower(*exprs[i], c));
        binary(c, *k == Intrinsic::Max ? OpCode::Max : OpCode::Min, right);
      }
      return kind;
    }
    const std::size_t arity = is_binary(*k) ? 2 : 1;
    if (exprs.size() != arity) {
      fail(c, "exprs.size() == (binary ? 2u : 1u)",
           "bad arity for intrinsic " + f.name());
      return Kind::Unknown;
    }
    Kind kinds[2] = {Kind::Unknown, Kind::Unknown};
    for (std::size_t i = 0; i < arity; ++i) kinds[i] = lower(*exprs[i], c);
    emit(c, op_of(OpCode::Intrinsic, nullptr, static_cast<std::uint16_t>(*k)),
         static_cast<std::uint32_t>(arity), 1);
    return intrinsic_kind(*k, kinds);
  }

  std::unique_ptr<CallSite> lower_call(const std::string& name, UnitKind kind,
                                       const std::vector<ExprPtr>& args) {
    auto site = std::make_unique<CallSite>();
    site->name = &name;
    site->kind = kind;
    try {
      site->callee = &interp_.callee_of(name, kind, args.size());
    } catch (const UserError&) {
      // Raised when the call executes.
    }
    for (const ExprPtr& actual : args) site->args.push_back(lower_arg(*actual));
    return site;
  }

  CallArg lower_arg(const Expression& actual) {
    CallArg arg;
    arg.expr = &actual;
    if (actual.kind() == ExprKind::VarRef) {
      Symbol* sym = static_cast<const VarRef&>(actual).symbol();
      if (sym->kind() != SymbolKind::Parameter) {
        arg.pass = CallArg::Pass::Variable;
        arg.sym = sym;
        return arg;
      }
    } else if (actual.kind() == ExprKind::ArrayRef) {
      // invoke checks the binding; this code only indexes.
      const auto& ref = static_cast<const ArrayRef&>(actual);
      arg.pass = CallArg::Pass::Element;
      arg.sym = ref.symbol();
      arg.code = code([&](Code& c) {
        if (!subscripts(ref, c)) return;
        const auto rank = static_cast<std::uint16_t>(ref.rank());
        emit(c, operand(OpCode::ElemIndex, ref.symbol(), rank), rank, 1);
      });
      return arg;
    }
    arg.code = lower_value(actual);
    return arg;
  }

  // --- what is certain about a symbol ------------------------------------

  bool in_unit(const Symbol* sym) const {
    const auto slot = static_cast<std::size_t>(sym->slot());
    const auto& symbols = unit_.symtab().symbols();
    return slot < symbols.size() && symbols[slot] == sym;
  }

  /// Whether `sym`'s storage always holds values of its declared type:
  /// a local outside COMMON that no call can bind to a dummy of another
  /// type, and that no DO of another type indexes.
  bool stable(const Symbol* sym) const {
    return in_unit(sym) && sym->kind() == SymbolKind::Variable &&
           !sym->in_common() &&
           !aliased_[static_cast<std::size_t>(sym->slot())];
  }

  /// Whether `sym` is certainly bound to an array cell when statement code
  /// runs, so its binding check cannot fail before its subscripts.
  bool bound_array(const Symbol* sym) const {
    if (!complete_frame_ || !in_unit(sym) ||
        sym->kind() != SymbolKind::Variable)
      return false;
    const auto& formals = unit_.formals();
    if (sym->in_common() &&
        std::find(formals.begin(), formals.end(), sym) == formals.end()) {
      // A COMMON cell has the shape of the first unit that bound it.
      if (const Cell* cell =
              interp_.commons_.lookup(sym->common_block(), sym->name()))
        return cell->is_array;
    }
    return sym->is_array();
  }

  void find_aliases() {
    aliased_.assign(unit_.symtab().size(), false);
    auto mark = [&](const Expression& actual) {
      if (actual.kind() == ExprKind::VarRef)
        mark_symbol(static_cast<const VarRef&>(actual).symbol());
      else if (actual.kind() == ExprKind::ArrayRef)
        mark_symbol(static_cast<const ArrayRef&>(actual).symbol());
    };
    auto scan = [&](const Expression& root) {
      walk(root, [&](const Expression& e) {
        if (e.kind() != ExprKind::FuncCall) return;
        const auto& f = static_cast<const FuncCall&>(e);
        if (find_intrinsic(f.name())) return;
        for (const ExprPtr& actual : f.args()) mark(*actual);
      });
    };
    for (Symbol* formal : unit_.formals()) mark_symbol(formal);
    for (Symbol* sym : unit_.symtab().symbols()) {
      for (const Dimension& dim : sym->dims()) {
        if (dim.lower) scan(*dim.lower);
        if (dim.upper) scan(*dim.upper);
      }
      for (const ExprPtr& v : sym->data_values()) scan(*v);
      if (sym->param_value() != nullptr) scan(*sym->param_value());
    }
    for (Statement* s = unit_.stmts().first(); s != nullptr; s = s->next()) {
      if (s->kind() == StmtKind::Call)
        for (const ExprPtr& actual : static_cast<CallStmt*>(s)->args())
          mark(*actual);
      if (s->kind() == StmtKind::Do) {
        Symbol* index = static_cast<DoStmt*>(s)->index();
        if (!index->type().is_integer()) mark_symbol(index);
      }
      for (const ExprPtr& e : s->expressions())
        if (e) scan(*e);
    }
  }

  void mark_symbol(const Symbol* sym) {
    if (in_unit(sym)) aliased_[static_cast<std::size_t>(sym->slot())] = true;
  }

  struct Fixup {
    std::size_t op;    ///< a jump op
    std::size_t stmt;  ///< its target statement's position
    bool dispatch;     ///< to the target's second entry
  };

  Interpreter& interp_;
  const CostModel& costs_;
  ProgramUnit& unit_;
  Plan& plan_;
  std::uint32_t unbound_ = 0;    ///< the frame slot no symbol binds
  bool complete_frame_ = false;  ///< lowering statement code
  std::vector<Statement*> stmts_;  ///< in order
  std::unordered_map<const Statement*, std::size_t> position_;
  std::vector<std::size_t> entry_, dispatch_;  ///< by position: op index
  std::unordered_map<const DoStmt*, LoopSite*> loop_of_;
  std::vector<std::size_t> do_entry_;  ///< by LoopSlot: its DoEntry op
  std::vector<Fixup> fixups_;
  std::vector<bool> aliased_;    ///< by slot: see stable()
  std::vector<const Symbol*> parameters_;  ///< PARAMETERs being lowered
  std::uint32_t depth_ = 0;      ///< stack depth at the end of the code so far
};

Plan& Interpreter::plan_of(ProgramUnit& unit) {
  std::unique_ptr<Plan>& plan = plans_[&unit];
  if (plan == nullptr) {
    plan = std::make_unique<Plan>();
    Lowerer(*this, unit, *plan).build();
  }
  return *plan;
}

}  // namespace polaris
