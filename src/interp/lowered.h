// Lowered code for the PF77 interpreter (DESIGN.md §13).
//
// At a unit's first activation in a run the Interpreter lowers the unit
// into one op stream over the Interpreter's one value stack.  Each
// statement is a statement op, which counts it and adds its pre-summed
// charge, then its expressions' postfix ops, then the op that completes
// it: a store, a jump (IF chains, GOTO), DO entry or DO next, CALL,
// PRINT, RETURN or STOP.  A leaf operand is folded into the op that
// consumes it: a binary op's constant or scalar right operand, an element
// access's subscripts of the form `v`, `v + c` or `v - c` over integer
// scalar locals, and the statement op a DO's body starts with into its
// DoNext.  What cannot change during the run is decided there, once:
// which intrinsic a name means and its arity, which unit a call reaches,
// a PARAMETER's value, the CostModel charge of every node (summed into
// one charge per statement or expression), the kind of an operand where
// it is certain (so an op can skip its tag tests), whether an array's
// binding check must run before its subscripts, each operand's frame slot
// and each jump's target.  Array bounds, DATA values and by-value call
// actuals are lowered to Codes of their own, evaluated where a frame is
// built or a call binds its arguments.
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

// Every binary op, each through B(X, name).  A binary op folds the top two
// values into one.  Its two fused forms take the right operand from the op
// instead: `nameC` from imm (a constant), `nameV` from the scalar bound to
// sym (with LoadVar's binding check).
#define POLARIS_BINARY_OPCODES(B, X)                                          \
  /* Tag-checked: an operand's kind is not certain.  Exactly the tree */      \
  /* walk's arithmetic, conversions and checks. */                            \
  B(X, Add) B(X, Sub) B(X, Mul) B(X, Div) B(X, Pow) B(X, Eq) B(X, Ne)         \
  B(X, Lt) B(X, Le) B(X, Gt) B(X, Ge) B(X, And) B(X, Or)                      \
  /* Both operands certainly integer. */                                      \
  B(X, AddI) B(X, SubI) B(X, MulI) B(X, DivI) B(X, EqI) B(X, NeI) B(X, LtI)   \
  B(X, LeI) B(X, GtI) B(X, GeI)                                               \
  /* Both operands certainly real. */                                         \
  B(X, AddR) B(X, SubR) B(X, MulR) B(X, DivR) B(X, EqR) B(X, NeR) B(X, LtR)   \
  B(X, LeR) B(X, GtR) B(X, GeR)                                               \
  /* Fold as max/min fold their arguments. */                                 \
  B(X, Max) B(X, Min)
#define POLARIS_FUSED_BINARY(X, name) X(name) X(name##C) X(name##V)

// Every OpCode, in the order of the evaluator's label table.
#define POLARIS_OPCODES(X)                                                   \
  X(End)        /* end of a Code */                                           \
  X(Const)      /* push imm */                                                \
  X(LoadVar)    /* push the scalar bound to sym */                            \
  X(CheckArray) /* check that sym is a bound array, before its subscripts */  \
  X(ToInt)      /* convert the top to integer (not known to be one) */        \
  X(CheckNum)   /* check that the top is numeric (max/min's first argument) */\
  X(LoadElem)   /* pop n integer subscripts; push sym's element */            \
  X(LoadElem1)  /* push sym's element at the subscript index[0] */            \
  X(LoadElem2)  /* ... at the subscripts index[0] and index[1] */             \
  X(ElemIndex)  /* pop n integer subscripts; push the element's flat index */ \
  X(StoreVar)   /* pop a value; store it into sym (coerced unless `same`) */  \
  X(StoreElem)  /* pop n integer subscripts, then a value; store the element*/\
  X(StoreElem1) /* pop a value; store the element LoadElem1 would load */     \
  X(StoreElem2) /* pop a value; store the element LoadElem2 would load */     \
  X(Coerce)     /* coerce the top to sym's type (an unfolded PARAMETER) */    \
  X(Fail)       /* raise `fail`: code that cannot run */                      \
  POLARIS_BINARY_OPCODES(POLARIS_FUSED_BINARY, X)                             \
  X(Neg) X(NegI) X(NegR) /* unary minus: tag-checked, integer, real */      \
  X(Not)                                                                      \
  X(Intrinsic)  /* the `n`-th Intrinsic over its one or two arguments */      \
  X(UserCall)   /* call `call`'s function; push its result */                 \
  /* Statements. */                                                           \
  X(Stmt)       /* count one statement; add `charge` */                       \
  X(ReductionStmt) /* Stmt of a reduction-flagged assignment */               \
  X(Charge)     /* add `charge`: an ELSE IF's condition, reached by its IF */ \
  X(Jump)       /* continue `jump` ops on */                                  \
  X(JumpFalse)  /* pop a condition; jump when it is false */                  \
  X(Leave)      /* a GOTO out of `leave`'s loops: jump */                     \
  X(DoEntry)    /* pop init, limit, step; run `loop` or jump past it */       \
  X(DoNext)     /* step loop_slot's DO: jump back to its body, or on */       \
  /* DoNext into a body that starts with a Stmt (ReductionStmt): runs */      \
  /* that op itself, then continues past it. */                               \
  X(DoNextStmt) X(DoNextReductionStmt)                                        \
  X(Call)       /* CALL `call` */                                             \
  X(Print)      /* pop `print`'s values; print them among its strings */      \
  X(Return)     /* RETURN, or the end of the unit */                          \
  X(Stop)       /* STOP */

enum class OpCode : std::uint8_t {
#define POLARIS_OPCODE(name) name,
  POLARIS_OPCODES(POLARIS_OPCODE)
#undef POLARIS_OPCODE
};

/// Code that fails whenever it runs: the InternalError the tree walk
/// raised there, with its condition and message, or (with no condition)
/// a UserError.
struct FailSite {
  const char* cond;  ///< null: a UserError
  std::string msg;
};

struct CallSite;
struct LoopSite;
struct LeaveSite;
struct PrintSite;

/// A fused access's subscript: the integer scalar at frame slot `slot`,
/// plus `offset` (wrapping, as AddIC does).
struct Subscript {
  std::uint32_t slot;
  std::int32_t offset;
};

struct Op {
  OpCode code;
  /// StoreVar and the StoreElem ops: the value's kind is the target's, so
  /// no coercion.
  bool same = false;
  std::uint16_t n = 0;  ///< rank or the Intrinsic
  union {
    /// Operand ops and the `V` binary ops: the symbol's frame slot.  A
    /// symbol of another unit gets the slot past the unit's symbols, which
    /// no frame binds.
    std::uint32_t slot = 0;
    /// Jumps, DoEntry and the DoNext ops: the distance to the op that
    /// runs next.
    std::int32_t jump;
  };
  union {
    Symbol* sym = nullptr;    ///< operand and `V` ops, for their messages
    const CallSite* call;     ///< UserCall, Call
    const FailSite* fail;     ///< Fail
    const LoopSite* loop;     ///< DoEntry
    const LeaveSite* leave;   ///< Leave
    const PrintSite* print;   ///< Print
    std::uint64_t charge;     ///< Stmt, ReductionStmt, Charge
    std::size_t loop_slot;    ///< the DoNext ops: the DO's LoopSlot
  };
  union {
    Value imm{};  ///< Const and the `C` binary ops
    /// LoadElem1/2, StoreElem1/2: each subscript's scalar and the constant
    /// added to it.
    Subscript index[2];
  };
};
static_assert(sizeof(Op) == 32, "an Op is half a cache line");

/// The fused form of binary op `code` whose right operand is `operand`'s
/// (a Const or a LoadVar): POLARIS_FUSED_BINARY lists each binary op's
/// forms in that order.
inline OpCode fused_binary(OpCode code, OpCode operand) {
  return static_cast<OpCode>(static_cast<std::uint8_t>(code) +
                             (operand == OpCode::Const ? 1 : 2));
}

/// Lowered code: an expression's, ending in End, or a unit's op stream,
/// ending in Return.  Evaluating an expression charges `charge` once,
/// then runs `ops`; a user function's own charges are made as it runs.
struct Code {
  std::vector<Op> ops;        ///< empty: no code
  std::uint64_t charge = 0;   ///< the static CostModel charge
  std::uint32_t depth = 0;    ///< value-stack slots one run needs
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

/// One DO.  Its DoEntry op is followed by its body; its DoNext op ends it.
struct LoopSite {
  const DoStmt* stmt = nullptr;
  std::uint32_t slot = 0;   ///< its LoopSlot in the activation
  std::uint32_t index = 0;  ///< the DO variable's frame slot
  bool parallel = false;    ///< marked DOALL or speculative
  /// Its DoNext directly follows its DoEntry: run sequentially, DoEntry
  /// makes every trip at once.
  bool empty = false;
  /// Speculative loops: what an attempt checkpoints, the arrays the body
  /// writes and the scalars it assigns.
  std::vector<Symbol*> written, assigned;
};

/// A GOTO out of DO bodies: the loops it leaves, innermost first.
struct LeaveSite {
  std::vector<const LoopSite*> loops;
};

/// A PRINT's items in order: a string, or null for a value on the stack.
struct PrintSite {
  std::vector<const std::string*> items;
  std::size_t values = 0;  ///< the null items: the values the op pops
};

/// A unit's lowered form, built at its first activation in a run.
struct Plan {
  Code body;              ///< the statements, as one op stream
  std::size_t slots = 0;  ///< frame slots: one per symbol, and one unbound
  /// By symbol slot: each dimension's lower and upper bound code (empty
  /// for a default lower bound or an assumed size), and DATA values.
  struct SymbolCode {
    std::vector<Code> lower, upper, data;
  };
  std::vector<SymbolCode> symbols;
  std::vector<std::unique_ptr<LoopSite>> loops;  ///< by LoopSlot
  std::vector<std::unique_ptr<CallSite>> calls;
  std::vector<std::unique_ptr<FailSite>> fails;
  std::vector<std::unique_ptr<LeaveSite>> leaves;
  std::vector<std::unique_ptr<PrintSite>> prints;
};

}  // namespace polaris
