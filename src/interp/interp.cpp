#include "interp/interp.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "interp/lowered.h"

namespace polaris {

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

// Fortran integer arithmetic, written once for the plain and the fused
// ops.  + - * and negation are computed in unsigned arithmetic, so an
// overflowing result wraps (as ipow's does) instead of being undefined.

std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }

std::int64_t int_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(bits(a) + bits(b));
}
std::int64_t int_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(bits(a) - bits(b));
}
std::int64_t int_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(bits(a) * bits(b));
}
std::int64_t int_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - bits(a));
}
/// |a|, wrapping as -a does: abs(-2^63) is -2^63.
std::int64_t int_abs(std::int64_t a) { return a < 0 ? int_neg(a) : a; }

/// l / r for integer values, truncated toward zero; -2^63 / -1 wraps to
/// -2^63, as -(-2^63) does.
[[gnu::always_inline]] inline std::int64_t int_div(const Value& l,
                                                   const Value& r) {
  p_assert_msg(r.as_int() != 0, "integer division by zero");
  const std::int64_t d = r.int_unchecked();
  return d == -1 ? int_neg(l.int_unchecked()) : l.int_unchecked() / d;
}

/// A DO's trip count, max(0, (limit - init + step) / step), computed in
/// 128 bits so no bound overflows.  The one count past 2^64 - 1 (a step of
/// +-1 over the whole int64 range) is held at 2^64 - 1: no run reaches it.
std::uint64_t trip_count(std::int64_t init, std::int64_t limit,
                         std::int64_t step) {
  const __int128 trips =
      (static_cast<__int128>(limit) - init + step) / step;
  if (trips <= 0) return 0;
  return trips > static_cast<__int128>(UINT64_MAX)
             ? UINT64_MAX
             : static_cast<std::uint64_t>(trips);
}

/// The DO variable's value after `trips` trips: init + trips*step,
/// wrapping.  After the last trip it is the value a completed DO leaves.
std::int64_t do_value(std::int64_t init, std::int64_t step,
                      std::uint64_t trips) {
  return static_cast<std::int64_t>(bits(init) + trips * bits(step));
}

std::string format_value(const Value& v) {
  if (v.is_integer()) return std::to_string(v.as_int());
  if (v.is_logical()) return v.as_logical() ? "T" : "F";
  std::ostringstream os;
  os.precision(9);
  os << v.as_real();
  return os.str();
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

// The lowered ops' failed binding checks, out of line: each raises the
// InternalError the tree walk raised there, condition and message alike.

[[noreturn, gnu::cold, gnu::noinline]] void load_failed(const Symbol* sym,
                                                       const Cell* cell) {
  if (cell == nullptr)
    detail::assert_failed("cell != nullptr", __FILE__, __LINE__,
                          "unbound variable " + sym->name());
  detail::assert_failed("!cell->is_array", __FILE__, __LINE__,
                        "whole array used as a value: " + sym->name());
}

/// An array's binding check: on a read (`store` false) or a store.
[[noreturn, gnu::cold, gnu::noinline]] void array_failed(const Symbol* sym,
                                                        bool store) {
  detail::assert_failed(
      "cell != nullptr && cell->is_array", __FILE__, __LINE__,
      (store ? "bad array store to " : "array not bound: ") + sym->name());
}

[[noreturn, gnu::cold, gnu::noinline]] void scalar_store_failed(
    const Symbol* sym) {
  detail::assert_failed("cell != nullptr && !cell->is_array", __FILE__,
                        __LINE__, "bad scalar store to " + sym->name());
}

/// The array cell at `slot`, checked as the element access's binding
/// check.
Cell* array_cell(Cell* const* cells, const Op* op, bool store) {
  Cell* cell = cells[op->slot];
  if (cell == nullptr || !cell->is_array) [[unlikely]]
    array_failed(op->sym, store);
  return cell;
}

/// The flat index of the `rank` integer subscripts at `subs`.
[[gnu::always_inline]] inline std::size_t element_of(const ArrayStorage& array,
                                                     const Value* subs,
                                                     std::size_t rank) {
  std::int64_t index[kMaxArrayRank];
  for (std::size_t d = 0; d < rank; ++d) index[d] = subs[d].int_unchecked();
  return array.flat_index(index, rank);
}

/// The flat index of a fused access's `Rank` subscripts: each the scalar
/// at its frame slot plus its offset, wrapping as AddIC does.  Lowering
/// proved each slot bound to an integer scalar.
template <std::size_t Rank>
[[gnu::always_inline]] inline std::size_t element_at(
    const ArrayStorage& array, Cell* const* cells, const Op* op) {
  std::int64_t index[Rank];
  for (std::size_t d = 0; d < Rank; ++d)
    index[d] = int_add(cells[op->index[d].slot]->scalar.int_unchecked(),
                       op->index[d].offset);
  return array.flat_index(index, Rank);
}

/// The scalar bound at `op`'s slot, with LoadVar's binding check: what
/// LoadVar pushes and a `V` binary op takes as its right operand.
[[gnu::always_inline]] inline const Value& scalar_at(Cell* const* cells,
                                                     const Op* op) {
  const Cell* cell = cells[op->slot];
  if (cell == nullptr || cell->is_array) [[unlikely]]
    load_failed(op->sym, cell);
  return cell->scalar;
}

/// The line a PRINT writes: its items in order, the values from `values`.
std::string print_line(const PrintSite& site, const Value* values) {
  std::string line;
  for (std::size_t i = 0; i < site.items.size(); ++i) {
    if (i != 0) line += ' ';
    line += site.items[i] != nullptr ? *site.items[i]
                                     : format_value(*values++);
  }
  return line;
}

/// The sum of a parallel loop's iteration costs: its serial time.
std::uint64_t serial_sum(const std::vector<std::uint64_t>& iter_costs) {
  std::uint64_t sum = 0;
  for (std::uint64_t c : iter_costs) sum = clock_add(sum, c, "serial");
  return sum;
}

[[noreturn, gnu::cold, gnu::noinline]] void statement_limit_exceeded() {
  throw UserError("interpreter statement limit exceeded");
}

/// A GOTO out of the body of a loop that a parallel or speculative runner
/// is stepping: its iterations cannot end there.
[[noreturn, gnu::cold, gnu::noinline]] void left_driven_loop(
    const LoopSite& loop) {
  throw UserError("GOTO leaves the body of " +
                  std::string(loop.stmt->par.speculative ? "speculative"
                                                         : "parallel") +
                  " loop " + loop.stmt->loop_name());
}

/// The value of intrinsic `k` (not max or min, which are ops) of the
/// arguments at `a`.  Forced inline into the one op that calls it.
[[gnu::always_inline]] inline Value apply_intrinsic(Intrinsic k,
                                                    const Value* a) {
  switch (k) {
    case Intrinsic::Abs:
      if (a[0].is_integer()) return Value::integer(int_abs(a[0].as_int()));
      return Value::real(std::fabs(a[0].as_real()));
    case Intrinsic::Mod:
      if (a[0].is_integer() && a[1].is_integer()) {
        p_assert_msg(a[1].as_int() != 0, "mod by zero");
        // mod(-2^63, -1) is 0, where the int64 remainder traps.
        return Value::integer(a[1].as_int() == -1
                                  ? 0
                                  : a[0].as_int() % a[1].as_int());
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
        const std::int64_t m = int_abs(a[0].as_int());
        return Value::integer(a[1].as_int() >= 0 ? m : int_neg(m));
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
      break;  // OpCode::Max and OpCode::Min
  }
  p_unreachable("bad intrinsic");
}

}  // namespace

Interpreter::Interpreter(Program& program, MachineConfig config,
                         CostModel costs)
    : program_(program), config_(config), costs_(costs), stack_(256) {}

Interpreter::~Interpreter() = default;

RunResult run_program(Program& program, MachineConfig config) {
  Interpreter interp(program, config);
  return interp.run();
}

RunResult Interpreter::run() {
  result_ = RunResult{};
  segment_cost_ = 0;
  cost_acc_ = &segment_cost_;
  in_parallel_ = false;
  shadow_frame_ = nullptr;
  plans_.clear();
  stack_top_ = 0;
  ProgramUnit* main = program_.main();
  Plan& plan = plan_of(*main);
  Frame frame(plan.slots, plan.loops.size());
  init_frame(*main, plan, frame);
  result_.stopped = run_body(plan, frame) == Exit::Stop;
  result_.clock.add_sequential(segment_cost_);
  segment_cost_ = 0;
  return result_;
}

Interpreter::Exit Interpreter::run_body(Plan& plan, Frame& frame) {
  Value* sp = stack_for(plan.body);
  return run_ops(plan.body.ops.data(), sp, frame);
}

void Interpreter::init_frame(ProgramUnit& unit, Plan& plan, Frame& frame) {
  for (Symbol* sym : unit.symtab().symbols()) {
    if (frame.bound(sym)) continue;  // formal already bound by the caller
    if (sym->kind() != SymbolKind::Variable) continue;
    const auto slot = static_cast<std::size_t>(sym->slot());
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
      resolve_array_bounds(plan, frame, sym, cell);
      cell->array.bind(allocate_array(*sym, cell->array.element_count()), 0);
    } else {
      cell->scalar = Value::zero_of(sym->type());
    }
    // DATA initialization.
    const std::vector<Code>& data = plan.symbols[slot].data;
    if (!data.empty()) {
      if (sym->is_array()) {
        p_assert_msg(data.size() == cell->array.size,
                     "DATA value count mismatch for " + sym->name());
        for (std::size_t i = 0; i < cell->array.size; ++i)
          cell->array.elements[i] = eval(data[i], frame).coerce_to(sym->type());
      } else {
        cell->scalar = eval(data[0], frame).coerce_to(sym->type());
      }
    }
  }
}

void Interpreter::resolve_array_bounds(Plan& plan, Frame& frame, Symbol* sym,
                                       Cell* cell) {
  const Plan::SymbolCode& code =
      plan.symbols[static_cast<std::size_t>(sym->slot())];
  ArrayStorage& array = cell->array;
  array.rank = 0;
  std::int64_t count = 1;  // elements in the dimensions resolved so far
  for (std::size_t d = 0; d < sym->dims().size(); ++d) {
    std::int64_t lo =
        code.lower[d].ops.empty() ? 1 : eval(code.lower[d], frame).as_int();
    std::int64_t hi;
    if (!code.upper[d].ops.empty()) {
      hi = eval(code.upper[d], frame).as_int();
    } else {
      // Assumed size: must be the last dimension of a bound formal whose
      // payload already exists.
      p_assert_msg(d + 1 == sym->dims().size(),
                   "assumed-size dimension must be last: " + sym->name());
      p_assert_msg(array.payload() != nullptr,
                   "assumed-size array without payload: " + sym->name());
      std::int64_t remaining =
          static_cast<std::int64_t>(array.size) - array.offset;
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
    array.add_dim(lo, hi);
  }
}

// --- lowered code -----------------------------------------------------------

Value* Interpreter::stack_for(const Code& code) {
  if (stack_top_ + code.depth > stack_.size())
    stack_.resize(std::max(2 * stack_.size(), stack_top_ + code.depth));
  return stack_.data() + stack_top_;
}

Value Interpreter::eval(const Code& code, Frame& frame) {
  charge(code.charge);
  Value* sp = stack_for(code);
  run_ops(code.ops.data(), sp, frame);
  return sp[-1];
}

Value Interpreter::eval_pure(const Code& code) {
  Frame none(0);
  Value* sp = stack_for(code);
  run_ops(code.ops.data(), sp, none);
  return sp[-1];
}

Interpreter::Exit Interpreter::run_ops(const Op* op, Value*& sp_out,
                                       Frame& frame) {
  // Threaded dispatch: each op ends by jumping through this table to the
  // next op's code.
  static const void* const labels[] = {
#define POLARIS_LABEL(name) &&op_##name,
      POLARIS_OPCODES(POLARIS_LABEL)
#undef POLARIS_LABEL
  };
#define POLARIS_DISPATCH() goto* labels[static_cast<std::size_t>(op->code)]
#define POLARIS_NEXT() \
  do {                 \
    ++op;              \
    POLARIS_DISPATCH(); \
  } while (0)
#define POLARIS_EXIT(why) \
  do {                    \
    sp_out = sp;          \
    return Exit::why;     \
  } while (0)

  Value* sp = sp_out;
  Cell* const* const cells = frame.cells();
  LoopSlot* const loops = frame.loops();
  POLARIS_DISPATCH();

op_End:
  POLARIS_EXIT(End);
op_Const:
  *sp++ = op->imm;
  POLARIS_NEXT();
op_LoadVar:
  *sp++ = scalar_at(cells, op);
  POLARIS_NEXT();
op_CheckArray:
  array_cell(cells, op, op->n != 0);
  POLARIS_NEXT();
op_ToInt:
  sp[-1] = Value::integer(sp[-1].as_int());
  POLARIS_NEXT();
op_CheckNum:
  (void)sp[-1].as_real();
  POLARIS_NEXT();
  // An element access: pops its `subs` stacked subscripts; then the
  // binding check, the flat index `index` (its bounds checks), the PD
  // shadow's mark, and the load or the store.
#define POLARIS_ELEMENT(name, store, subs, index)                       \
  op_##name: {                                                          \
    sp -= (subs);                                                       \
    Cell* cell = array_cell(cells, op, store);                          \
    const std::size_t flat = (index);                                   \
    if (shadow_frame_ == &frame) [[unlikely]] {                         \
      if (ShadowArrays* shadow = shadow_slots_[op->slot])               \
        store ? shadow->record_write(flat) : shadow->record_read(flat); \
    }                                                                   \
    Value& element = cell->array.elements[flat];                        \
    if (store) {                                                        \
      --sp;                                                             \
      element = op->same ? *sp : sp->coerce_to(op->sym->type());        \
    } else {                                                            \
      *sp++ = element;                                                  \
    }                                                                   \
    POLARIS_NEXT();                                                     \
  }
  POLARIS_ELEMENT(LoadElem, false, op->n,
                  element_of(cell->array, sp, op->n))
  POLARIS_ELEMENT(LoadElem1, false, 0, element_at<1>(cell->array, cells, op))
  POLARIS_ELEMENT(LoadElem2, false, 0, element_at<2>(cell->array, cells, op))
  POLARIS_ELEMENT(StoreElem, true, op->n,
                  element_of(cell->array, sp, op->n))
  POLARIS_ELEMENT(StoreElem1, true, 0, element_at<1>(cell->array, cells, op))
  POLARIS_ELEMENT(StoreElem2, true, 0, element_at<2>(cell->array, cells, op))
#undef POLARIS_ELEMENT
op_ElemIndex: {
  sp -= op->n;
  const std::size_t flat = element_of(cells[op->slot]->array, sp, op->n);
  *sp++ = Value::integer(static_cast<std::int64_t>(flat));
  POLARIS_NEXT();
}
op_StoreVar: {
  Cell* cell = cells[op->slot];
  if (cell == nullptr || cell->is_array) [[unlikely]]
    scalar_store_failed(op->sym);
  --sp;
  cell->scalar = op->same ? *sp : sp->coerce_to(op->sym->type());
  POLARIS_NEXT();
}
op_Coerce:
  sp[-1] = sp[-1].coerce_to(op->sym->type());
  POLARIS_NEXT();
op_Fail:
  if (op->fail->cond == nullptr) throw UserError(op->fail->msg);
  detail::assert_failed(op->fail->cond, __FILE__, __LINE__, op->fail->msg);

  // A binary op computes `expr` over its operands `l` and `r`: the top two
  // values, or (its fused forms) the top value and the op's constant or
  // scalar.
#define POLARIS_BINARY(name, expr)         \
  op_##name: {                             \
    const Value& l = sp[-2];               \
    const Value& r = sp[-1];               \
    sp[-2] = (expr);                       \
    --sp;                                  \
    POLARIS_NEXT();                        \
  }                                        \
  op_##name##C: {                          \
    const Value& l = sp[-1];               \
    const Value& r = op->imm;              \
    sp[-1] = (expr);                       \
    POLARIS_NEXT();                        \
  }                                        \
  op_##name##V: {                          \
    const Value& l = sp[-1];               \
    const Value& r = scalar_at(cells, op); \
    sp[-1] = (expr);                       \
    POLARIS_NEXT();                        \
  }
  // The tag-checked op and its integer (`I`) and real (`R`) forms.
#define POLARIS_ARITH(name, op, int_expr)                                \
  POLARIS_BINARY(name, l.is_integer() && r.is_integer()                  \
                           ? Value::integer(int_expr)                    \
                           : Value::real(l.as_real() op r.as_real()))    \
  POLARIS_BINARY(name##I, Value::integer(int_expr))                      \
  POLARIS_BINARY(name##R, Value::real(l.real_unchecked()                 \
                                          op r.real_unchecked()))
#define POLARIS_COMPARE(name, op)                                       \
  POLARIS_BINARY(name, Value::logical(                                  \
                           l.is_integer() && r.is_integer()             \
                               ? l.int_unchecked() op r.int_unchecked() \
                               : l.as_real() op r.as_real()))           \
  POLARIS_BINARY(name##I, Value::logical(l.int_unchecked()              \
                                             op r.int_unchecked()))     \
  POLARIS_BINARY(name##R, Value::logical(l.real_unchecked()             \
                                             op r.real_unchecked()))

  POLARIS_ARITH(Add, +, int_add(l.int_unchecked(), r.int_unchecked()))
  POLARIS_ARITH(Sub, -, int_sub(l.int_unchecked(), r.int_unchecked()))
  POLARIS_ARITH(Mul, *, int_mul(l.int_unchecked(), r.int_unchecked()))
  POLARIS_ARITH(Div, /, int_div(l, r))
  POLARIS_COMPARE(Eq, ==)
  POLARIS_COMPARE(Ne, !=)
  POLARIS_COMPARE(Lt, <)
  POLARIS_COMPARE(Le, <=)
  POLARIS_COMPARE(Gt, >)
  POLARIS_COMPARE(Ge, >=)
  POLARIS_BINARY(Pow, l.is_integer() && r.is_integer()
                          ? Value::integer(ipow(l.int_unchecked(),
                                                r.int_unchecked()))
                          : Value::real(std::pow(l.as_real(), r.as_real())))
  POLARIS_BINARY(And, Value::logical(l.as_logical() && r.as_logical()))
  POLARIS_BINARY(Or, Value::logical(l.as_logical() || r.as_logical()))
  POLARIS_BINARY(Max, l.is_integer() && r.is_integer()
                          ? Value::integer(std::max(l.int_unchecked(),
                                                    r.int_unchecked()))
                          : Value::real(std::max(l.as_real(), r.as_real())))
  POLARIS_BINARY(Min, l.is_integer() && r.is_integer()
                          ? Value::integer(std::min(l.int_unchecked(),
                                                    r.int_unchecked()))
                          : Value::real(std::min(l.as_real(), r.as_real())))
#undef POLARIS_COMPARE
#undef POLARIS_ARITH
#undef POLARIS_BINARY

op_Neg:
  sp[-1] = sp[-1].is_integer()
               ? Value::integer(int_neg(sp[-1].int_unchecked()))
               : Value::real(-sp[-1].as_real());
  POLARIS_NEXT();
op_NegI:
  sp[-1] = Value::integer(int_neg(sp[-1].int_unchecked()));
  POLARIS_NEXT();
op_NegR:
  sp[-1] = Value::real(-sp[-1].real_unchecked());
  POLARIS_NEXT();
op_Not:
  sp[-1] = Value::logical(!sp[-1].as_logical());
  POLARIS_NEXT();
op_Intrinsic: {
  const auto k = static_cast<Intrinsic>(op->n);
  sp -= is_binary(k) ? 2 : 1;
  *sp = apply_intrinsic(k, sp);
  ++sp;
  POLARIS_NEXT();
}
op_UserCall: {
  // The callee's evaluations run above this one's operands, and may grow
  // the stack: keep positions, not pointers, across the call.
  const std::size_t at = static_cast<std::size_t>(sp - stack_.data());
  const std::size_t saved_top = stack_top_;
  stack_top_ = at;
  Value result = call_function(frame, *op->call);
  stack_top_ = saved_top;
  sp = stack_.data() + at;
  *sp++ = result;
  POLARIS_NEXT();
}

  // Statements.  Between them the stack is empty, at stack_top_; an op
  // that calls out re-derives `sp` there, since the stack may have grown.
op_Stmt:
  if (++result_.statements > stmt_limit_) [[unlikely]]
    statement_limit_exceeded();
  charge(op->charge);
  POLARIS_NEXT();
op_ReductionStmt:
  if (++result_.statements > stmt_limit_) [[unlikely]]
    statement_limit_exceeded();
  charge(op->charge);
  if (in_parallel_) ++reduction_updates_;
  POLARIS_NEXT();
op_Charge:
  charge(op->charge);
  POLARIS_NEXT();
op_Jump:
  op += op->jump;
  POLARIS_DISPATCH();
op_JumpFalse:
  --sp;
  op += sp->as_logical() ? 1 : op->jump;
  POLARIS_DISPATCH();
op_Leave:
  for (const LoopSite* loop : op->leave->loops)
    if (loops[loop->slot].driven) [[unlikely]]
      left_driven_loop(*loop);
  op += op->jump;
  POLARIS_DISPATCH();
op_DoEntry: {
  const LoopSite& loop = *op->loop;
  sp -= 3;
  const std::int64_t init = sp[0].int_unchecked();
  const std::int64_t limit = sp[1].int_unchecked();
  const std::int64_t step = sp[2].int_unchecked();
  p_assert_msg(step != 0, "DO step is zero");
  const std::uint64_t trips = trip_count(init, limit, step);
  if (loop.parallel && !in_parallel_ && config_.processors > 1) {
    const Exit exit =
        loop.stmt->par.speculative
            ? run_speculative_loop(frame, op, init, step, trips)
            : run_parallel_loop(frame, op, init, step, trips);
    if (exit != Exit::End) {
      sp_out = sp;
      return exit;
    }
    sp = stack_.data() + stack_top_;
    op += op->jump;
    POLARIS_DISPATCH();
  }
  Cell* idx = cells[loop.index];
  p_assert(idx != nullptr && !idx->is_array);
  if (loop.empty) {
    // Every trip at once: the value and the charge the trips reach.
    idx->scalar = Value::integer(do_value(init, step, trips));
    charge(clock_mul(trips, costs_.loop_iter, "serial"));
    op += op->jump;
    POLARIS_DISPATCH();
  }
  idx->scalar = Value::integer(init);
  if (trips != 0) {
    loops[loop.slot] = LoopSlot{init, step, trips, idx, false};
    charge(costs_.loop_iter);
    POLARIS_NEXT();
  }
  op += op->jump;  // no trips: the DO variable is left at init
  POLARIS_DISPATCH();
}
  // Steps the DO: on to `body` (a dispatch, or the statement op the body
  // starts with, which the op runs itself) while trips are left; else on
  // with the DO variable at init + trips*step.
#define POLARIS_DO_NEXT(name, body)                        \
  op_##name: {                                             \
    LoopSlot& loop = loops[op->loop_slot];                 \
    if (loop.driven) [[unlikely]]                          \
      POLARIS_EXIT(Next);                                  \
    loop.value = int_add(loop.value, loop.step);           \
    loop.index->scalar = Value::integer(loop.value);       \
    if (--loop.trips != 0) {                               \
      charge(costs_.loop_iter);                            \
      op += op->jump;                                      \
      body;                                                \
    }                                                      \
    POLARIS_NEXT();                                        \
  }
  POLARIS_DO_NEXT(DoNext, POLARIS_DISPATCH())
  POLARIS_DO_NEXT(DoNextStmt, goto op_Stmt)
  POLARIS_DO_NEXT(DoNextReductionStmt, goto op_ReductionStmt)
#undef POLARIS_DO_NEXT
op_Call:
  if (run_call(frame, *op->call)) POLARIS_EXIT(Stop);
  sp = stack_.data() + stack_top_;
  POLARIS_NEXT();
op_Print:
  sp -= op->print->values;
  result_.output.push_back(print_line(*op->print, sp));
  POLARIS_NEXT();
op_Return:
  POLARIS_EXIT(Return);
op_Stop:
  POLARIS_EXIT(Stop);

#undef POLARIS_EXIT
#undef POLARIS_NEXT
#undef POLARIS_DISPATCH
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

Plan& Interpreter::callee_plan(const CallSite& site) {
  // A call lowering could not resolve raises callee_of's UserError here.
  if (site.callee == nullptr)
    callee_of(*site.name, site.kind, site.args.size());
  if (site.plan == nullptr) site.plan = &plan_of(*site.callee);
  return *site.plan;
}

Interpreter::Exit Interpreter::invoke(Frame& frame, const CallSite& site,
                                      Plan& plan, Frame& inner) {
  ProgramUnit& callee = *site.callee;
  charge(costs_.call);
  for (std::size_t i = 0; i < site.args.size(); ++i) {
    Symbol* dummy = callee.formals()[i];
    const CallArg& arg = site.args[i];
    // The caller's storage the actual names, if it names any: a scalar or
    // array cell, and for an element actual the element's flat index.
    Cell* cell = nullptr;
    std::optional<std::size_t> element;
    if (arg.pass == CallArg::Pass::Variable) {
      cell = frame.lookup(arg.sym);
      p_assert_msg(cell != nullptr, "unbound actual " + arg.sym->name());
    } else if (arg.pass == CallArg::Pass::Element) {
      cell = frame.lookup(arg.sym);
      p_assert(cell != nullptr && cell->is_array);
      element = static_cast<std::size_t>(eval(arg.code, frame).int_unchecked());
    }

    if (dummy->is_array()) {
      if (cell == nullptr || !cell->is_array)
        throw UserError("scalar actual for array dummy " + dummy->name() +
                        " of " + callee.name());
      // The whole array, or the section from the element on; bounds are
      // resolved in callee terms below.
      Cell* view = inner.create_local(dummy);
      view->is_array = true;
      view->array.bind(cell->array.payload(),
                       element ? static_cast<std::int64_t>(*element)
                               : cell->array.offset);
    } else if (cell == nullptr) {
      inner.create_local(dummy)->scalar =
          eval(arg.code, frame).coerce_to(dummy->type());
    } else if (!cell->is_array) {
      inner.bind(dummy, cell);  // scalar by reference
    } else if (!element) {
      throw UserError("array " + arg.expr->to_string() +
                      " passed to scalar dummy " + dummy->name() + " of " +
                      callee.name());
    } else {
      // Copy-restore.  The copy's otherwise unused array storage
      // remembers the element, so the copy-back below needs no side table.
      Cell* copy = inner.create_local(dummy);
      copy->scalar = cell->array.elements[*element];
      copy->array.bind(cell->array.payload(),
                       static_cast<std::int64_t>(*element));
    }
  }

  // Array dummies' bounds are resolved in callee terms, after the scalar
  // dummies they may depend on are bound.
  for (Symbol* dummy : callee.formals())
    if (dummy->is_array())
      resolve_array_bounds(plan, inner, dummy, inner.lookup(dummy));

  init_frame(callee, plan, inner);
  const Exit exit = run_body(plan, inner);
  for (std::size_t i = 0; i < site.args.size(); ++i) {
    Symbol* dummy = callee.formals()[i];
    if (site.args[i].pass != CallArg::Pass::Element || dummy->is_array())
      continue;
    const Cell* copy = inner.lookup(dummy);
    copy->array.elements[copy->array.offset] = copy->scalar;
  }
  return exit;
}

bool Interpreter::run_call(Frame& frame, const CallSite& site) {
  Plan& plan = callee_plan(site);
  Frame inner(plan.slots, plan.loops.size());
  return invoke(frame, site, plan, inner) == Exit::Stop;
}

Value Interpreter::call_function(Frame& frame, const CallSite& site) {
  Plan& plan = callee_plan(site);
  Frame inner(plan.slots, plan.loops.size());
  if (invoke(frame, site, plan, inner) == Exit::Stop) {
    result_.stopped = true;
    throw UserError("STOP inside function");
  }
  Cell* res = inner.lookup(site.callee->result());
  p_assert_msg(res != nullptr && !res->is_array,
               "function result unset: " + *site.name);
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

Interpreter::Exit Interpreter::run_iteration(const Op* entry, Frame& frame) {
  Value* sp = stack_.data() + stack_top_;
  return run_ops(entry + 1, sp, frame);
}

Interpreter::Exit Interpreter::run_parallel_loop(Frame& frame,
                                                 const Op* entry,
                                                 std::int64_t init,
                                                 std::int64_t step,
                                                 std::uint64_t trips) {
  const LoopSite& loop = *entry->loop;
  const DoStmt* d = loop.stmt;
  ++result_.parallel_instances;
  in_parallel_ = true;
  Cell* idx = frame.lookup(d->index());
  p_assert(idx != nullptr);
  LoopSlot& slot = frame.loops()[loop.slot];
  slot.driven = true;
  const std::uint64_t updates_before = reduction_updates_;

  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  Exit out = Exit::End;
  for (std::uint64_t n = 0; n < trips; ++n) {
    idx->scalar = Value::integer(do_value(init, step, n));
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    const Exit exit = run_iteration(entry, frame);
    cost_acc_ = saved_acc;
    iter_costs.push_back(iter_cost);
    if (exit != Exit::Next) {
      out = exit;
      break;
    }
  }
  slot.driven = false;
  idx->scalar = Value::integer(do_value(init, step, trips));
  in_parallel_ = false;

  result_.clock.serial =
      clock_add(result_.clock.serial, serial_sum(iter_costs), "serial");
  std::uint64_t par = schedule_doall(iter_costs, config_,
                                     reduction_elements(frame, d),
                                     d->par.lastvalue_vars.size(),
                                     reduction_updates_ - updates_before);
  result_.clock.parallel = clock_add(result_.clock.parallel, par, "parallel");
  return out;
}

Interpreter::Exit Interpreter::run_speculative_loop(Frame& frame,
                                                    const Op* entry,
                                                    std::int64_t init,
                                                    std::int64_t step,
                                                    std::uint64_t trips) {
  const LoopSite& loop = *entry->loop;
  const DoStmt* d = loop.stmt;
  ++result_.speculative_attempts;
  Cell* idx = frame.lookup(d->index());
  p_assert(idx != nullptr);

  // Checkpoint: snapshot everything the loop may write (arrays in full,
  // assigned scalars).  The paper's implementation writes to temporaries;
  // the state-restoration cost is modeled below either way.
  std::vector<std::pair<Cell*, std::vector<Value>>> array_checkpoint;
  std::vector<std::pair<Cell*, Value>> scalar_checkpoint;
  std::uint64_t checkpoint_cost = 0;
  for (Symbol* array : loop.written) {
    Cell* cell = frame.lookup(array);
    if (cell == nullptr || !cell->is_array) continue;
    array_checkpoint.emplace_back(cell, *cell->array.payload());
    checkpoint_cost =
        clock_add(checkpoint_cost,
                  clock_mul(cell->array.size, costs_.mem, "parallel"),
                  "parallel");
  }
  for (Symbol* s : loop.assigned) {
    Cell* cell = frame.lookup(s);
    if (cell != nullptr && !cell->is_array)
      scalar_checkpoint.emplace_back(cell, cell->scalar);
  }

  // Shadow arrays for the statically unanalyzable arrays, found by slot
  // by the accesses made in this frame.
  std::vector<std::unique_ptr<ShadowArrays>> shadow_storage;
  p_assert_msg(!d->par.speculative_arrays.empty(),
               "speculative loop without arrays under test");
  shadow_slots_.assign(frame.slots(), nullptr);
  for (Symbol* s : d->par.speculative_arrays) {
    Cell* cell = frame.lookup(s);
    p_assert_msg(cell != nullptr && cell->is_array,
                 "speculative array not bound: " + s->name());
    shadow_storage.push_back(
        std::make_unique<ShadowArrays>(cell->array.size));
    shadow_slots_[static_cast<std::size_t>(s->slot())] =
        shadow_storage.back().get();
  }
  shadow_frame_ = &frame;

  // Speculative parallel execution with marking.
  LoopSlot& slot = frame.loops()[loop.slot];
  slot.driven = true;
  in_parallel_ = true;
  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  Exit out = Exit::End;
  for (std::uint64_t n = 0; n < trips; ++n) {
    idx->scalar = Value::integer(do_value(init, step, n));
    for (auto& sh : shadow_storage) sh->begin_iteration();
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    const Exit exit = run_iteration(entry, frame);
    cost_acc_ = saved_acc;
    for (auto& sh : shadow_storage) sh->end_iteration();
    iter_costs.push_back(iter_cost);
    if (exit != Exit::Next) {
      out = exit;
      break;
    }
  }
  in_parallel_ = false;
  shadow_frame_ = nullptr;

  // Post-execution analysis.
  bool pass = true;
  std::uint64_t pd_cost = 0;
  for (auto& sh : shadow_storage) {
    pass = pass && sh->analyze().pass();
    pd_cost = clock_add(pd_cost, sh->cost(config_.processors), "parallel");
  }
  result_.pd_test_cost += pd_cost;

  result_.clock.serial =
      clock_add(result_.clock.serial, serial_sum(iter_costs), "serial");
  // The attempt's marking and post-analysis and its checkpoint, charged to
  // the parallel clock whether it passes or fails.
  const std::uint64_t pd_overhead =
      clock_add(pd_cost, checkpoint_cost, "parallel");

  if (pass) {
    slot.driven = false;
    std::uint64_t par = schedule_doall(iter_costs, config_,
                                       reduction_elements(frame, d),
                                       d->par.lastvalue_vars.size());
    result_.clock.parallel =
        clock_add(result_.clock.parallel, clock_add(par, pd_overhead,
                                                    "parallel"),
                  "parallel");
    idx->scalar = Value::integer(do_value(init, step, trips));
    return out;
  }

  // Failed: restore state, charge the wasted attempt, re-execute serially.
  ++result_.speculative_failures;
  // In place: the cells' element pointers stay valid.
  for (auto& [cell, snapshot] : array_checkpoint)
    std::copy(snapshot.begin(), snapshot.end(), cell->array.elements);
  for (auto& [cell, snapshot] : scalar_checkpoint) cell->scalar = snapshot;

  std::uint64_t wasted = clock_add(schedule_doall(iter_costs, config_, 0, 0),
                                   pd_overhead, "parallel");
  result_.speculative_wasted += wasted;
  result_.clock.parallel =
      clock_add(result_.clock.parallel, wasted, "parallel");

  // Sequential re-execution (results recomputed identically; costs flow
  // into both clocks... the serial reference already includes one
  // execution, so charge only the parallel clock for the re-run).
  std::uint64_t rerun_cost = 0;
  cost_acc_ = &rerun_cost;
  Exit rerun = Exit::End;
  for (std::uint64_t n = 0; n < trips; ++n) {
    idx->scalar = Value::integer(do_value(init, step, n));
    charge(costs_.loop_iter);
    const Exit exit = run_iteration(entry, frame);
    if (exit != Exit::Next) {
      rerun = exit;
      break;
    }
  }
  slot.driven = false;
  cost_acc_ = saved_acc;
  result_.clock.parallel =
      clock_add(result_.clock.parallel, rerun_cost, "parallel");
  idx->scalar = Value::integer(do_value(init, step, trips));
  return rerun;
}

}  // namespace polaris
