// Lowered code for the PF77 interpreter (DESIGN.md §13).
//
// At a unit's first activation in a run the Interpreter lowers every
// expression the unit evaluates into a Code: a flat postfix sequence of
// Ops over the Interpreter's one value stack.  What cannot change during
// the run is decided there, once: which intrinsic a name means and its
// arity, which unit a call reaches, a PARAMETER's value, the CostModel
// charge of every node (summed into one charge per evaluation), the kind
// of an operand where it is certain (so an op can skip its tag tests),
// and whether an array's binding check must run before its subscripts.
// Statements are not lowered: they keep their kind-by-kind dispatch, one
// Plan entry each, in statement order, with jump targets resolved.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/memory.h"
#include "interp/value.h"
#include "ir/program.h"

namespace polaris {

struct Plan;

enum class Intrinsic : std::uint8_t {
  Abs, Max, Min, Mod, Sqrt, Exp, Log, Log10, Sin, Cos, Tan, Atan, Atan2,
  Sign, Int, Nint, Real, Dble, Iand, Ior, Ieor,
};

/// Whether intrinsic `k` takes two arguments (max and min take two or
/// more, every other one argument).
inline bool is_binary(Intrinsic k) {
  return k == Intrinsic::Mod || k == Intrinsic::Atan2 ||
         k == Intrinsic::Sign || k == Intrinsic::Iand ||
         k == Intrinsic::Ior || k == Intrinsic::Ieor;
}

enum class OpCode : std::uint8_t {
  End,         ///< end of a Code
  Const,       ///< push imm
  LoadVar,     ///< push the scalar bound to sym
  CheckArray,  ///< check that sym is a bound array, before its subscripts
  ToInt,       ///< convert the top to integer (a subscript not known to be)
  CheckNum,    ///< check that the top is numeric (max/min's first argument)
  LoadElem,    ///< pop n integer subscripts; push sym's element
  ElemIndex,   ///< pop n integer subscripts; push the element's flat index
  StoreVar,    ///< pop a value; store it into sym (coerced unless `same`)
  StoreElem,   ///< pop n integer subscripts, then a value; store the element
  Coerce,      ///< coerce the top to sym's type (an unfolded PARAMETER)
  Fail,        ///< raise `fail`: an expression that cannot evaluate
  // Tag-checked: an operand's kind is not certain.  Exactly the tree
  // walk's arithmetic, conversions and checks.
  Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or, Neg, Not,
  // Both operands certainly integer.
  AddI, SubI, MulI, DivI, EqI, NeI, LtI, LeI, GtI, GeI, NegI,
  // Both operands certainly real.
  AddR, SubR, MulR, DivR, EqR, NeR, LtR, LeR, GtR, GeR, NegR,
  Max, Min,    ///< fold the top two, as max/min fold their arguments
  Intrinsic,   ///< the `n`-th Intrinsic over its one or two arguments
  UserCall,    ///< call `call`'s function; push its result
};

/// An expression that fails whenever it is evaluated: the InternalError
/// the tree walk raised there, with its condition and message, or (with
/// no condition) a UserError.
struct FailSite {
  const char* cond;  ///< null: a UserError
  std::string msg;
};

struct CallSite;

struct Op {
  OpCode code;
  /// StoreVar/StoreElem: the value's kind is the target's, so no coercion.
  bool same = false;
  std::uint16_t n = 0;  ///< rank, or the Intrinsic
  union {
    Symbol* sym = nullptr;
    const CallSite* call;
    const FailSite* fail;
  };
  Value imm;  ///< Const
};

/// One expression (or assignment) lowered.  Evaluating it charges
/// `charge` once, then runs `ops`; a user function's own charges are
/// made as it runs.
struct Code {
  std::vector<Op> ops;        ///< ends with OpCode::End; empty: no code
  std::uint64_t charge = 0;   ///< the static CostModel charge
  std::uint32_t depth = 0;    ///< value-stack slots one evaluation needs
};

/// How a CALL or function reference passes one actual argument.
struct CallArg {
  enum class Pass : std::uint8_t {
    Variable,  ///< a scalar or whole-array variable, by reference
    Element,   ///< an array element: `code` pushes its flat index
    Value,     ///< anything else: `code` pushes the value
  };
  Pass pass = Pass::Value;
  Symbol* sym = nullptr;              ///< Variable, Element
  const Expression* expr = nullptr;   ///< the actual, for messages
  Code code;
};

struct CallSite {
  const std::string* name = nullptr;
  UnitKind kind = UnitKind::Subroutine;
  /// Null when callee_of raises a UserError for this call; it is raised
  /// when the call executes.
  ProgramUnit* callee = nullptr;
  mutable Plan* plan = nullptr;  ///< the callee's, once it has run here
  std::vector<CallArg> args;
};

/// No statement: a GOTO to an unknown label; as a stop, the unit's end.
inline constexpr std::size_t kNoStmt = static_cast<std::size_t>(-1);

/// One statement, in statement order.  Which fields are used depends on
/// the statement's kind.
struct StmtPlan {
  Statement* stmt = nullptr;
  /// Do: its END DO.  If/ElseIf: the next arm.  Else: its END IF.
  /// Goto: the labelled statement (kNoStmt for an unknown label).
  std::size_t jump = 0;
  std::size_t end = 0;  ///< ElseIf: its END IF
  /// Assign: right-hand side and store.  Do: init, limit, step.
  /// If/ElseIf: the condition, with the branch charge.  Print: one per
  /// item (empty for a string).
  std::vector<Code> codes;
  std::unique_ptr<CallSite> call;  ///< Call
};

/// A unit's lowered form, built at its first activation in a run.
struct Plan {
  std::vector<StmtPlan> stmts;
  /// By symbol slot: each dimension's lower and upper bound code (empty
  /// for a default lower bound or an assumed size), and DATA values.
  struct SymbolCode {
    std::vector<Code> lower, upper, data;
  };
  std::vector<SymbolCode> symbols;
  std::vector<std::unique_ptr<CallSite>> calls;  ///< function references
  std::vector<std::unique_ptr<FailSite>> fails;
};

}  // namespace polaris
