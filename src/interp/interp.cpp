#include "interp/interp.h"

#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "dep/access.h"

namespace polaris {

enum class Intrinsic {
  Abs, Max, Min, Mod, Sqrt, Exp, Log, Log10, Sin, Cos, Tan, Atan, Atan2,
  Sign, Int, Nint, Real, Dble, Iand, Ior, Ieor,
};

std::int64_t real_to_int(double d) {
  // 2^63 is exact as a double; NaN fails both comparisons.
  if (!(d >= -0x1p63 && d < 0x1p63))
    throw UserError("real value out of integer range");
  return static_cast<std::int64_t>(d);
}

namespace {

/// Fortran integer power.  Square-and-multiply in unsigned arithmetic, so
/// a huge exponent takes O(log exp) steps and an overflowing result wraps
/// instead of being undefined.  A negative exponent means 1/base**|exp|
/// truncated toward zero: 0 for |base| > 1, and +-1 for base +-1.
std::int64_t ipow(std::int64_t base, std::int64_t exp) {
  if (exp < 0) {
    if (base == 0)
      throw UserError("zero raised to a negative integer power");
    if (base == 1) return 1;
    if (base == -1) return exp % 2 == 0 ? 1 : -1;
    return 0;
  }
  std::uint64_t result = 1;
  std::uint64_t b = static_cast<std::uint64_t>(base);
  for (auto e = static_cast<std::uint64_t>(exp); e != 0; e >>= 1) {
    if (e & 1) result *= b;
    b *= b;
  }
  return static_cast<std::int64_t>(result);
}

/// The DO variable's value once the loop has run to completion:
/// init + trips*step, trips = max(0, (limit - init + step) / step).
std::int64_t do_exit_value(std::int64_t init, std::int64_t limit,
                           std::int64_t step) {
  std::int64_t trips = std::max<std::int64_t>(0, (limit - init + step) / step);
  return init + trips * step;
}

std::string format_value(const Value& v) {
  if (v.is_integer()) return std::to_string(v.as_int());
  if (v.is_logical()) return v.as_logical() ? "T" : "F";
  std::ostringstream os;
  os.precision(9);
  os << v.as_real();
  return os.str();
}

/// One hash probe on the parser's canonical intrinsic name (aliases such
/// as dsqrt are already folded by canonical_intrinsic); nullopt for a user
/// function.
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

/// `sym`'s zero-filled payload of `n` elements.  A count no vector can
/// hold, or an allocation that fails, is a UserError naming the array.
std::shared_ptr<std::vector<Value>> allocate_array(const Symbol& sym,
                                                   std::int64_t n) {
  if (static_cast<std::uint64_t>(n) > std::vector<Value>().max_size())
    throw UserError("array " + sym.name() + " has too many elements");
  try {
    return std::make_shared<std::vector<Value>>(static_cast<std::size_t>(n),
                                                Value::zero_of(sym.type()));
  } catch (const std::bad_alloc&) {
    throw UserError("cannot allocate array " + sym.name() + " (" +
                    std::to_string(n) + " elements)");
  }
}

}  // namespace

Interpreter::Interpreter(Program& program, MachineConfig config,
                         CostModel costs)
    : program_(program), config_(config), costs_(costs) {}

RunResult run_program(Program& program, MachineConfig config) {
  Interpreter interp(program, config);
  return interp.run();
}

void Interpreter::count_statement() {
  ++result_.statements;
  if (result_.statements > stmt_limit_)
    throw UserError("interpreter statement limit exceeded");
}

RunResult Interpreter::run() {
  result_ = RunResult{};
  segment_cost_ = 0;
  cost_acc_ = &segment_cost_;
  ProgramUnit* main = program_.main();
  Frame frame(main->symtab().size());
  init_frame(*main, frame);
  UnitResult r;
  execute_unit(*main, frame, &r);
  result_.stopped = r.stopped;
  result_.clock.add_sequential(segment_cost_);
  segment_cost_ = 0;
  return result_;
}

void Interpreter::init_frame(ProgramUnit& unit, Frame& frame) {
  for (Symbol* sym : unit.symtab().symbols()) {
    if (frame.bound(sym)) continue;  // formal already bound by the caller
    if (sym->kind() != SymbolKind::Variable) continue;
    Cell* cell = nullptr;
    if (sym->in_common()) {
      cell = commons_.lookup(sym->common_block(), sym->name());
      bool fresh = (cell == nullptr);
      if (fresh) cell = commons_.create(sym->common_block(), sym->name());
      frame.bind(sym, cell);
      if (!fresh) continue;  // already initialized by another unit
    } else {
      cell = frame.create_local(sym);
    }
    if (sym->is_array()) {
      cell->is_array = true;
      resolve_array_bounds(unit, frame, sym, cell);
      cell->array.data = allocate_array(*sym, cell->array.element_count());
    } else {
      cell->scalar = Value::zero_of(sym->type());
    }
    // DATA initialization.
    if (!sym->data_values().empty()) {
      if (sym->is_array()) {
        p_assert_msg(sym->data_values().size() ==
                         cell->array.data->size(),
                     "DATA value count mismatch for " + sym->name());
        for (std::size_t i = 0; i < cell->array.data->size(); ++i)
          (*cell->array.data)[i] =
              eval(unit, frame, *sym->data_values()[i]).coerce_to(sym->type());
      } else {
        cell->scalar =
            eval(unit, frame, *sym->data_values()[0]).coerce_to(sym->type());
      }
    }
  }
}

void Interpreter::resolve_array_bounds(ProgramUnit& unit, Frame& frame,
                                       Symbol* sym, Cell* cell) {
  cell->array.bounds.clear();
  std::int64_t count = 1;  // elements in the dimensions resolved so far
  for (std::size_t d = 0; d < sym->dims().size(); ++d) {
    const Dimension& dim = sym->dims()[d];
    std::int64_t lo =
        dim.lower ? eval(unit, frame, *dim.lower).as_int() : 1;
    std::int64_t hi;
    if (dim.upper) {
      hi = eval(unit, frame, *dim.upper).as_int();
    } else {
      // Assumed size: must be the last dimension of a bound formal whose
      // payload already exists.
      p_assert_msg(d + 1 == sym->dims().size(),
                   "assumed-size dimension must be last: " + sym->name());
      p_assert_msg(cell->array.data != nullptr,
                   "assumed-size array without payload: " + sym->name());
      std::int64_t remaining =
          static_cast<std::int64_t>(cell->array.data->size()) -
          cell->array.offset;
      if (__builtin_add_overflow(lo, remaining / count - 1, &hi))
        throw UserError("array " + sym->name() +
                        " has an upper bound past the integer range");
    }
    // A hostile declaration is a user error naming the array: an empty
    // extent, or an element count with no int64 value.
    if (hi < lo)
      throw UserError("array " + sym->name() + " has an empty dimension " +
                      std::to_string(lo) + ":" + std::to_string(hi));
    std::int64_t extent = 0;
    if (__builtin_sub_overflow(hi, lo, &extent) ||
        __builtin_add_overflow(extent, 1, &extent) ||
        __builtin_mul_overflow(count, extent, &count))
      throw UserError("array " + sym->name() + " has too many elements");
    cell->array.bounds.emplace_back(lo, hi);
  }
}

void Interpreter::execute_unit(ProgramUnit& unit, Frame& frame,
                               UnitResult* out) {
  UnitResult r = execute_range(unit, frame, unit.stmts().first(), nullptr);
  if (out) *out = r;
}

Interpreter::UnitResult Interpreter::execute_range(ProgramUnit& unit,
                                                   Frame& frame,
                                                   Statement* first,
                                                   Statement* stop) {
  Statement* s = first;
  while (s != stop && s != nullptr) {
    UnitResult r = execute_statement(unit, frame, s);
    if (r.returned || r.stopped) return r;
  }
  return {};
}

Interpreter::UnitResult Interpreter::execute_statement(ProgramUnit& unit,
                                                       Frame& frame,
                                                       Statement*& s) {
  count_statement();
  switch (s->kind()) {
    case StmtKind::Assign: {
      auto* a = static_cast<AssignStmt*>(s);
      if (in_parallel_ && a->reduction_flag != ReductionKind::None)
        ++reduction_updates_;
      Value v = eval(unit, frame, a->rhs());
      store(unit, frame, a->lhs(), v);
      s = s->next();
      return {};
    }
    case StmtKind::Do: {
      auto* d = static_cast<DoStmt*>(s);
      std::int64_t init = eval(unit, frame, d->init()).as_int();
      std::int64_t limit = eval(unit, frame, d->limit()).as_int();
      std::int64_t step = eval(unit, frame, d->step()).as_int();
      p_assert_msg(step != 0, "DO step is zero");

      const bool wants_parallel =
          (d->par.is_parallel || d->par.speculative) && !in_parallel_ &&
          config_.processors > 1;
      if (wants_parallel) {
        UnitResult r =
            d->par.speculative
                ? run_speculative_loop(unit, frame, d, init, limit, step)
                : run_parallel_loop(unit, frame, d, init, limit, step);
        if (r.returned || r.stopped) return r;
        s = d->follow()->next();
        return {};
      }

      Cell* idx = frame.lookup(d->index());
      p_assert(idx != nullptr && !idx->is_array);
      for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
           v += step) {
        idx->scalar = Value::integer(v);
        charge(costs_.loop_iter);
        UnitResult r = execute_range(unit, frame, d->next(), d->follow());
        if (r.returned || r.stopped) return r;
      }
      idx->scalar = Value::integer(do_exit_value(init, limit, step));
      s = d->follow()->next();
      return {};
    }
    case StmtKind::EndDo:
      s = s->next();
      return {};
    case StmtKind::If: {
      // Dispatch over the whole arm chain here; arm headers reached by
      // *sequential flow* (below) mean the previous arm completed and jump
      // to the END IF instead.
      Statement* arm = s;
      while (true) {
        if (arm->kind() == StmtKind::If || arm->kind() == StmtKind::ElseIf) {
          charge(costs_.branch);
          const Expression& cond =
              arm->kind() == StmtKind::If
                  ? static_cast<IfStmt*>(arm)->cond()
                  : static_cast<ElseIfStmt*>(arm)->cond();
          if (eval(unit, frame, cond).as_logical()) {
            s = arm->next();
            return {};
          }
          arm = arm->kind() == StmtKind::If
                    ? static_cast<IfStmt*>(arm)->next_arm()
                    : static_cast<ElseIfStmt*>(arm)->next_arm();
        } else {
          // ELSE (unconditionally taken) or END IF (no arm taken).
          s = arm->next();
          return {};
        }
      }
    }
    case StmtKind::ElseIf:
      s = static_cast<ElseIfStmt*>(s)->end();  // previous arm completed
      return {};
    case StmtKind::Else:
      s = static_cast<ElseStmt*>(s)->end();  // previous arm completed
      return {};
    case StmtKind::EndIf:
      s = s->next();
      return {};
    case StmtKind::Goto: {
      charge(costs_.branch);
      Statement* target =
          unit.stmts().find_label(static_cast<GotoStmt*>(s)->target());
      p_assert_msg(target != nullptr, "GOTO to unknown label");
      s = target;
      return {};
    }
    case StmtKind::Continue:
    case StmtKind::Comment:
      s = s->next();
      return {};
    case StmtKind::Call: {
      bool stopped = run_call(unit, frame, *static_cast<CallStmt*>(s));
      if (stopped) {
        UnitResult r;
        r.stopped = true;
        return r;
      }
      s = s->next();
      return {};
    }
    case StmtKind::Return: {
      UnitResult r;
      r.returned = true;
      return r;
    }
    case StmtKind::Stop: {
      UnitResult r;
      r.stopped = true;
      return r;
    }
    case StmtKind::Print: {
      auto* p = static_cast<PrintStmt*>(s);
      std::ostringstream line;
      bool first_item = true;
      for (const ExprPtr& item : p->items()) {
        if (!first_item) line << " ";
        first_item = false;
        if (item->kind() == ExprKind::StringConst) {
          line << static_cast<const StringConst&>(*item).value();
        } else {
          line << format_value(eval(unit, frame, *item));
        }
      }
      result_.output.push_back(line.str());
      s = s->next();
      return {};
    }
  }
  p_unreachable("bad statement kind");
}

// --- expression evaluation ------------------------------------------------------

Value Interpreter::eval(ProgramUnit& unit, Frame& frame,
                        const Expression& e) {
  switch (e.kind()) {
    case ExprKind::IntConst:
      return Value::integer(static_cast<const IntConst&>(e).value());
    case ExprKind::RealConst:
      return Value::real(static_cast<const RealConst&>(e).value());
    case ExprKind::LogicalConst:
      return Value::logical(static_cast<const LogicalConst&>(e).value());
    case ExprKind::StringConst:
      p_assert_msg(false, "string value outside PRINT");
    case ExprKind::VarRef: {
      Symbol* sym = static_cast<const VarRef&>(e).symbol();
      if (sym->kind() == SymbolKind::Parameter) {
        p_assert(sym->param_value() != nullptr);
        return eval(unit, frame, *sym->param_value()).coerce_to(sym->type());
      }
      Cell* cell = frame.lookup(sym);
      p_assert_msg(cell != nullptr, "unbound variable " + sym->name());
      p_assert_msg(!cell->is_array,
                   "whole array used as a value: " + sym->name());
      charge(costs_.mem);
      return cell->scalar;
    }
    case ExprKind::ArrayRef: {
      const auto& ref = static_cast<const ArrayRef&>(e);
      Cell* cell = frame.lookup(ref.symbol());
      p_assert_msg(cell != nullptr && cell->is_array,
                   "array not bound: " + ref.symbol()->name());
      std::size_t flat = element_index(unit, frame, ref, cell->array);
      charge(costs_.mem);
      auto shadow = shadows_.find(ref.symbol());
      if (shadow != shadows_.end()) shadow->second->record_read(flat);
      return (*cell->array.data)[flat];
    }
    case ExprKind::BinOp: {
      const auto& b = static_cast<const BinOp&>(e);
      Value l = eval(unit, frame, b.left());
      Value r = eval(unit, frame, b.right());
      switch (b.op()) {
        case BinOpKind::Add:
          charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::integer(l.as_int() + r.as_int());
          return Value::real(l.as_real() + r.as_real());
        case BinOpKind::Sub:
          charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::integer(l.as_int() - r.as_int());
          return Value::real(l.as_real() - r.as_real());
        case BinOpKind::Mul:
          charge(costs_.mul);
          if (l.is_integer() && r.is_integer())
            return Value::integer(l.as_int() * r.as_int());
          return Value::real(l.as_real() * r.as_real());
        case BinOpKind::Div:
          charge(costs_.div);
          if (l.is_integer() && r.is_integer()) {
            p_assert_msg(r.as_int() != 0, "integer division by zero");
            return Value::integer(l.as_int() / r.as_int());
          }
          return Value::real(l.as_real() / r.as_real());
        case BinOpKind::Pow:
          charge(costs_.pow);
          if (l.is_integer() && r.is_integer())
            return Value::integer(ipow(l.as_int(), r.as_int()));
          return Value::real(std::pow(l.as_real(), r.as_real()));
        case BinOpKind::Eq: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() == r.as_int());
          return Value::logical(l.as_real() == r.as_real());
        case BinOpKind::Ne: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() != r.as_int());
          return Value::logical(l.as_real() != r.as_real());
        case BinOpKind::Lt: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() < r.as_int());
          return Value::logical(l.as_real() < r.as_real());
        case BinOpKind::Le: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() <= r.as_int());
          return Value::logical(l.as_real() <= r.as_real());
        case BinOpKind::Gt: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() > r.as_int());
          return Value::logical(l.as_real() > r.as_real());
        case BinOpKind::Ge: charge(costs_.add);
          if (l.is_integer() && r.is_integer())
            return Value::logical(l.as_int() >= r.as_int());
          return Value::logical(l.as_real() >= r.as_real());
        case BinOpKind::And:
          charge(costs_.add);
          return Value::logical(l.as_logical() && r.as_logical());
        case BinOpKind::Or:
          charge(costs_.add);
          return Value::logical(l.as_logical() || r.as_logical());
      }
      p_unreachable("bad binop");
    }
    case ExprKind::UnOp: {
      const auto& u = static_cast<const UnOp&>(e);
      Value v = eval(unit, frame, u.operand());
      charge(costs_.add);
      if (u.op() == UnOpKind::Neg) {
        if (v.is_integer()) return Value::integer(-v.as_int());
        return Value::real(-v.as_real());
      }
      return Value::logical(!v.as_logical());
    }
    case ExprKind::FuncCall: {
      const auto& f = static_cast<const FuncCall&>(e);
      if (std::optional<Intrinsic> k = find_intrinsic(f.name()))
        return eval_intrinsic(unit, frame, *k, f);
      return eval_user_function(unit, frame, f);
    }
    case ExprKind::Wildcard:
      p_assert_msg(false, "wildcard evaluated at run time");
  }
  p_unreachable("bad expression kind");
}

Value Interpreter::eval_intrinsic(ProgramUnit& unit, Frame& frame,
                                  Intrinsic k, const FuncCall& f) {
  charge(costs_.intrinsic);
  const std::vector<ExprPtr>& exprs = f.args();
  if (k == Intrinsic::Max || k == Intrinsic::Min) {
    // Folded in argument order; the result is integer iff every argument
    // is.
    p_assert_msg(exprs.size() >= 2, "bad arity for " + f.name());
    const bool is_max = k == Intrinsic::Max;
    Value v = eval(unit, frame, *exprs[0]);
    bool all_int = v.is_integer();
    std::int64_t ir = all_int ? v.as_int() : 0;
    double rr = v.as_real();
    for (std::size_t i = 1; i < exprs.size(); ++i) {
      v = eval(unit, frame, *exprs[i]);
      all_int = all_int && v.is_integer();
      if (all_int)
        ir = is_max ? std::max(ir, v.as_int()) : std::min(ir, v.as_int());
      rr = is_max ? std::max(rr, v.as_real()) : std::min(rr, v.as_real());
    }
    return all_int ? Value::integer(ir) : Value::real(rr);
  }

  // Every other intrinsic takes one or two arguments.
  const bool binary = k == Intrinsic::Mod || k == Intrinsic::Atan2 ||
                      k == Intrinsic::Sign || k == Intrinsic::Iand ||
                      k == Intrinsic::Ior || k == Intrinsic::Ieor;
  p_assert_msg(exprs.size() == (binary ? 2u : 1u),
               "bad arity for intrinsic " + f.name());
  Value a[2];
  for (std::size_t i = 0; i < exprs.size(); ++i)
    a[i] = eval(unit, frame, *exprs[i]);
  switch (k) {
    case Intrinsic::Abs:
      if (a[0].is_integer()) return Value::integer(std::abs(a[0].as_int()));
      return Value::real(std::fabs(a[0].as_real()));
    case Intrinsic::Mod:
      if (a[0].is_integer() && a[1].is_integer()) {
        p_assert_msg(a[1].as_int() != 0, "mod by zero");
        return Value::integer(a[0].as_int() % a[1].as_int());
      }
      return Value::real(std::fmod(a[0].as_real(), a[1].as_real()));
    case Intrinsic::Sqrt: return Value::real(std::sqrt(a[0].as_real()));
    case Intrinsic::Exp: return Value::real(std::exp(a[0].as_real()));
    case Intrinsic::Log: return Value::real(std::log(a[0].as_real()));
    case Intrinsic::Log10: return Value::real(std::log10(a[0].as_real()));
    case Intrinsic::Sin: return Value::real(std::sin(a[0].as_real()));
    case Intrinsic::Cos: return Value::real(std::cos(a[0].as_real()));
    case Intrinsic::Tan: return Value::real(std::tan(a[0].as_real()));
    case Intrinsic::Atan: return Value::real(std::atan(a[0].as_real()));
    case Intrinsic::Atan2:
      return Value::real(std::atan2(a[0].as_real(), a[1].as_real()));
    case Intrinsic::Sign:
      if (a[0].is_integer() && a[1].is_integer()) {
        std::int64_t m = std::abs(a[0].as_int());
        return Value::integer(a[1].as_int() >= 0 ? m : -m);
      }
      return Value::real(a[1].as_real() >= 0 ? std::fabs(a[0].as_real())
                                            : -std::fabs(a[0].as_real()));
    case Intrinsic::Int: return Value::integer(a[0].as_int());
    case Intrinsic::Nint:
      return Value::integer(real_to_int(std::round(a[0].as_real())));
    case Intrinsic::Real:
    case Intrinsic::Dble: return Value::real(a[0].as_real());
    case Intrinsic::Iand:
      return Value::integer(a[0].as_int() & a[1].as_int());
    case Intrinsic::Ior:
      return Value::integer(a[0].as_int() | a[1].as_int());
    case Intrinsic::Ieor:
      return Value::integer(a[0].as_int() ^ a[1].as_int());
    case Intrinsic::Max:
    case Intrinsic::Min:
      break;  // folded above
  }
  p_unreachable("bad intrinsic");
}

std::size_t Interpreter::element_index(ProgramUnit& unit, Frame& frame,
                                       const ArrayRef& ref,
                                       const ArrayStorage& array) {
  const std::vector<ExprPtr>& exprs = ref.subscripts();
  p_assert_msg(exprs.size() <= kMaxArrayRank,
               "array rank above 7: " + ref.symbol()->name());
  std::int64_t subs[kMaxArrayRank] = {};
  for (std::size_t d = 0; d < exprs.size(); ++d)
    subs[d] = eval(unit, frame, *exprs[d]).as_int();
  return array.flat_index(subs, exprs.size());
}

void Interpreter::store(ProgramUnit& unit, Frame& frame,
                        const Expression& lhs, Value v) {
  charge(costs_.mem);
  if (lhs.kind() == ExprKind::VarRef) {
    Symbol* sym = static_cast<const VarRef&>(lhs).symbol();
    Cell* cell = frame.lookup(sym);
    p_assert_msg(cell != nullptr && !cell->is_array,
                 "bad scalar store to " + sym->name());
    cell->scalar = v.coerce_to(sym->type());
    return;
  }
  const auto& ref = static_cast<const ArrayRef&>(lhs);
  Cell* cell = frame.lookup(ref.symbol());
  p_assert_msg(cell != nullptr && cell->is_array,
               "bad array store to " + ref.symbol()->name());
  std::size_t flat = element_index(unit, frame, ref, cell->array);
  auto shadow = shadows_.find(ref.symbol());
  if (shadow != shadows_.end()) shadow->second->record_write(flat);
  (*cell->array.data)[flat] = v.coerce_to(ref.symbol()->type());
}

// --- calls ----------------------------------------------------------------------

ProgramUnit& Interpreter::callee_of(const std::string& name, UnitKind kind,
                                    std::size_t n_args) {
  ProgramUnit* callee = program_.find(name);
  if (callee == nullptr || callee->kind() != kind)
    throw UserError((kind == UnitKind::Subroutine
                         ? "call to unknown subroutine "
                         : "reference to unknown function ") +
                    name);
  const std::size_t n_dummies = callee->formals().size();
  if (n_args != n_dummies)
    throw UserError("argument count mismatch calling " + name + ": " +
                    std::to_string(n_args) + " actual, " +
                    std::to_string(n_dummies) + " dummy");
  return *callee;
}

Interpreter::UnitResult Interpreter::invoke(ProgramUnit& unit, Frame& frame,
                                            ProgramUnit& callee,
                                            const std::vector<ExprPtr>& args,
                                            Frame& inner) {
  charge(costs_.call);
  for (std::size_t i = 0; i < args.size(); ++i) {
    Symbol* dummy = callee.formals()[i];
    const Expression& actual = *args[i];
    // The caller's storage the actual names, if it names any: a scalar or
    // array cell, and for an element actual the element's flat index.
    Cell* cell = nullptr;
    std::optional<std::size_t> element;
    if (actual.kind() == ExprKind::VarRef) {
      Symbol* sym = static_cast<const VarRef&>(actual).symbol();
      if (sym->kind() != SymbolKind::Parameter) {
        cell = frame.lookup(sym);
        p_assert_msg(cell != nullptr, "unbound actual " + sym->name());
      }
    } else if (actual.kind() == ExprKind::ArrayRef) {
      const auto& ref = static_cast<const ArrayRef&>(actual);
      cell = frame.lookup(ref.symbol());
      p_assert(cell != nullptr && cell->is_array);
      element = element_index(unit, frame, ref, cell->array);
    }

    if (dummy->is_array()) {
      if (cell == nullptr || !cell->is_array)
        throw UserError("scalar actual for array dummy " + dummy->name() +
                        " of " + callee.name());
      // The whole array, or the section from the element on; bounds are
      // resolved in callee terms below.
      Cell* view = inner.create_local(dummy);
      view->is_array = true;
      view->array.data = cell->array.data;
      view->array.offset = element ? static_cast<std::int64_t>(*element)
                                   : cell->array.offset;
    } else if (cell == nullptr) {
      inner.create_local(dummy)->scalar =
          eval(unit, frame, actual).coerce_to(dummy->type());
    } else if (!cell->is_array) {
      inner.bind(dummy, cell);  // scalar by reference
    } else if (!element) {
      throw UserError("array " + actual.to_string() +
                      " passed to scalar dummy " + dummy->name() + " of " +
                      callee.name());
    } else {
      // Copy-restore.  The copy's otherwise unused array storage
      // remembers the element, so the copy-back below needs no side table.
      Cell* copy = inner.create_local(dummy);
      copy->scalar = (*cell->array.data)[*element];
      copy->array.data = cell->array.data;
      copy->array.offset = static_cast<std::int64_t>(*element);
    }
  }

  // Array dummies' bounds are resolved in callee terms, after the scalar
  // dummies they may depend on are bound.
  for (Symbol* dummy : callee.formals())
    if (dummy->is_array())
      resolve_array_bounds(callee, inner, dummy, inner.lookup(dummy));

  init_frame(callee, inner);
  UnitResult r;
  execute_unit(callee, inner, &r);
  for (std::size_t i = 0; i < args.size(); ++i) {
    Symbol* dummy = callee.formals()[i];
    if (args[i]->kind() != ExprKind::ArrayRef || dummy->is_array()) continue;
    const Cell* copy = inner.lookup(dummy);
    (*copy->array.data)[static_cast<std::size_t>(copy->array.offset)] =
        copy->scalar;
  }
  return r;
}

bool Interpreter::run_call(ProgramUnit& unit, Frame& frame,
                           const CallStmt& call) {
  ProgramUnit& callee =
      callee_of(call.name(), UnitKind::Subroutine, call.args().size());
  Frame inner(callee.symtab().size());
  return invoke(unit, frame, callee, call.args(), inner).stopped;
}

Value Interpreter::eval_user_function(ProgramUnit& unit, Frame& frame,
                                      const FuncCall& f) {
  ProgramUnit& callee =
      callee_of(f.name(), UnitKind::Function, f.args().size());
  Frame inner(callee.symtab().size());
  if (invoke(unit, frame, callee, f.args(), inner).stopped) {
    result_.stopped = true;
    throw UserError("STOP inside function");
  }
  Cell* res = inner.lookup(callee.result());
  p_assert_msg(res != nullptr && !res->is_array,
               "function result unset: " + f.name());
  return res->scalar;
}

// --- parallel execution -----------------------------------------------------------

std::size_t Interpreter::reduction_elements(Frame& frame, const DoStmt* d) {
  std::size_t total = 0;
  for (const ReductionInfo& r : d->par.reductions) {
    Cell* cell = frame.lookup(r.var);
    if (cell != nullptr && cell->is_array)
      total += static_cast<std::size_t>(cell->array.element_count());
    else
      total += 1;
  }
  return total;
}

Interpreter::UnitResult Interpreter::run_parallel_loop(
    ProgramUnit& unit, Frame& frame, DoStmt* d, std::int64_t init,
    std::int64_t limit, std::int64_t step) {
  ++result_.parallel_instances;
  in_parallel_ = true;
  Cell* idx = frame.lookup(d->index());
  p_assert(idx != nullptr);
  const std::uint64_t updates_before = reduction_updates_;

  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  UnitResult out;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    UnitResult r = execute_range(unit, frame, d->next(), d->follow());
    cost_acc_ = saved_acc;
    iter_costs.push_back(iter_cost);
    if (r.returned || r.stopped) {
      out = r;
      break;
    }
  }
  idx->scalar = Value::integer(do_exit_value(init, limit, step));
  in_parallel_ = false;

  std::uint64_t serial_sum = 0;
  for (std::uint64_t c : iter_costs) serial_sum += c;
  std::uint64_t par = schedule_doall(iter_costs, config_,
                                     reduction_elements(frame, d),
                                     d->par.lastvalue_vars.size(),
                                     reduction_updates_ - updates_before);
  result_.clock.serial += serial_sum;
  result_.clock.parallel += par;
  return out;
}

Interpreter::UnitResult Interpreter::run_speculative_loop(
    ProgramUnit& unit, Frame& frame, DoStmt* d, std::int64_t init,
    std::int64_t limit, std::int64_t step) {
  ++result_.speculative_attempts;
  Cell* idx = frame.lookup(d->index());
  p_assert(idx != nullptr);

  // Checkpoint: snapshot everything the loop may write (arrays in full,
  // assigned scalars).  The paper's implementation writes to temporaries;
  // the state-restoration cost is modeled below either way.
  std::map<Cell*, std::vector<Value>> array_checkpoint;
  std::map<Cell*, Value> scalar_checkpoint;
  std::uint64_t checkpoint_cost = 0;
  auto accesses = collect_array_accesses(d);
  for (const auto& [array, refs] : accesses) {
    bool written = false;
    for (const ArrayAccess& a : refs) written = written || a.is_write;
    if (!written) continue;
    Cell* cell = frame.lookup(array);
    if (cell == nullptr || !cell->is_array) continue;
    array_checkpoint[cell] = *cell->array.data;
    checkpoint_cost += cell->array.data->size() * costs_.mem;
  }
  for (Symbol* s : scalars_assigned(d)) {
    Cell* cell = frame.lookup(s);
    if (cell != nullptr && !cell->is_array)
      scalar_checkpoint[cell] = cell->scalar;
  }

  // Shadow arrays for the statically unanalyzable arrays.
  std::vector<std::unique_ptr<ShadowArrays>> shadow_storage;
  p_assert_msg(!d->par.speculative_arrays.empty(),
               "speculative loop without arrays under test");
  for (Symbol* s : d->par.speculative_arrays) {
    Cell* cell = frame.lookup(s);
    p_assert_msg(cell != nullptr && cell->is_array,
                 "speculative array not bound: " + s->name());
    shadow_storage.push_back(
        std::make_unique<ShadowArrays>(cell->array.data->size()));
    shadows_[s] = shadow_storage.back().get();
  }

  // Speculative parallel execution with marking.
  in_parallel_ = true;
  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  UnitResult out;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    for (auto& sh : shadow_storage) sh->begin_iteration();
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    UnitResult r = execute_range(unit, frame, d->next(), d->follow());
    cost_acc_ = saved_acc;
    for (auto& sh : shadow_storage) sh->end_iteration();
    iter_costs.push_back(iter_cost);
    if (r.returned || r.stopped) {
      out = r;
      break;
    }
  }
  in_parallel_ = false;
  for (Symbol* s : d->par.speculative_arrays) shadows_.erase(s);

  // Post-execution analysis.
  bool pass = true;
  std::uint64_t pd_cost = 0;
  for (auto& sh : shadow_storage) {
    pass = pass && sh->analyze().pass();
    pd_cost += sh->cost(config_.processors);
  }
  result_.pd_test_cost += pd_cost;

  std::uint64_t serial_sum = 0;
  for (std::uint64_t c : iter_costs) serial_sum += c;
  result_.clock.serial += serial_sum;

  if (pass) {
    std::uint64_t par = schedule_doall(iter_costs, config_,
                                       reduction_elements(frame, d),
                                       d->par.lastvalue_vars.size());
    result_.clock.parallel += par + pd_cost + checkpoint_cost;
    idx->scalar = Value::integer(do_exit_value(init, limit, step));
    return out;
  }

  // Failed: restore state, charge the wasted attempt, re-execute serially.
  ++result_.speculative_failures;
  for (auto& [cell, snapshot] : array_checkpoint)
    *cell->array.data = snapshot;
  for (auto& [cell, snapshot] : scalar_checkpoint) cell->scalar = snapshot;

  std::uint64_t wasted = schedule_doall(iter_costs, config_, 0, 0) + pd_cost +
                         checkpoint_cost;
  result_.speculative_wasted += wasted;
  result_.clock.parallel += wasted;

  // Sequential re-execution (results recomputed identically; costs flow
  // into both clocks... the serial reference already includes one
  // execution, so charge only the parallel clock for the re-run).
  std::uint64_t rerun_cost = 0;
  cost_acc_ = &rerun_cost;
  UnitResult r2;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    charge(costs_.loop_iter);
    r2 = execute_range(unit, frame, d->next(), d->follow());
    if (r2.returned || r2.stopped) break;
  }
  cost_acc_ = saved_acc;
  result_.clock.parallel += rerun_cost;
  idx->scalar = Value::integer(do_exit_value(init, limit, step));
  return r2;
}

}  // namespace polaris
