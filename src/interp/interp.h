// PF77 interpreter with cost accounting and parallel-loop simulation.
//
// The interpreter plays two roles in the reproduction:
//   1. Semantics oracle: transformed programs must print exactly what the
//      originals print (the property tests' equivalence check).
//   2. Timing substrate: every operation charges cost units; loops marked
//      parallel by the DOALL pass are "executed" on the simulated
//      multiprocessor (per-iteration costs measured, then scheduled over p
//      processors with overheads), and loops marked speculative run the
//      full PD-test protocol — shadow marking, post-analysis, commit or
//      restore-and-reexecute (paper Section 3.5).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/memory.h"
#include "ir/program.h"
#include "machine/machine.h"
#include "runtime/pdtest.h"

namespace polaris {

struct CostModel {
  std::uint64_t add = 1;
  std::uint64_t mul = 2;
  std::uint64_t div = 8;
  std::uint64_t pow = 12;
  std::uint64_t intrinsic = 16;
  std::uint64_t mem = 1;       ///< per scalar/array element access
  std::uint64_t branch = 1;
  std::uint64_t loop_iter = 2;
  std::uint64_t call = 24;
};

struct RunResult {
  std::vector<std::string> output;   ///< PRINT lines
  RunClock clock;                    ///< serial vs modeled parallel time
  std::uint64_t statements = 0;      ///< executed statement count
  int parallel_instances = 0;        ///< DOALL loop executions
  int speculative_attempts = 0;
  int speculative_failures = 0;
  std::uint64_t pd_test_cost = 0;    ///< total shadow+analysis cost
  std::uint64_t speculative_wasted = 0;  ///< failed-attempt parallel time
  bool stopped = false;              ///< STOP executed
};

struct Plan;
struct Code;
struct CallSite;
struct Op;

class Interpreter {
 public:
  explicit Interpreter(Program& program, MachineConfig config = {},
                       CostModel costs = {});
  ~Interpreter();

  /// Executes the main program to completion.
  RunResult run();

  /// Safety valve for runaway programs (default 500M statements).
  void set_statement_limit(std::uint64_t limit) { stmt_limit_ = limit; }

 private:
  friend class Lowerer;  // lower.cpp: builds Plans, folds PARAMETERs

  /// Why run_ops returned.
  enum class Exit : std::uint8_t {
    End,     ///< an expression's code ran to its End
    Next,    ///< a driven loop's body reached its END DO
    Return,  ///< RETURN, or the end of the unit
    Stop,    ///< STOP, here or in a callee
  };

  /// `unit`'s lowered form, built at its first activation in the run.
  Plan& plan_of(ProgramUnit& unit);
  /// The plan of the unit `site` calls; callee_of's UserError for a call
  /// lowering could not resolve.
  Plan& callee_plan(const CallSite& site);

  /// Runs `plan`'s statements in `frame`, from the first: Return or Stop.
  Exit run_body(Plan& plan, Frame& frame);

  void init_frame(ProgramUnit& unit, Plan& plan, Frame& frame);
  void resolve_array_bounds(Plan& plan, Frame& frame, Symbol* sym,
                            Cell* cell);

  /// Evaluates an expression's code: charges its static charge, runs its
  /// ops on the value stack above every evaluation in progress, and
  /// returns the value it leaves on top.
  Value eval(const Code& code, Frame& frame);
  /// Evaluates code of pure ops (no frame, no callee, no charge): a
  /// PARAMETER's value, folded at lowering.
  Value eval_pure(const Code& code);
  /// The value stack from stack_top_ on, with room for `code`.
  Value* stack_for(const Code& code);
  /// The one evaluator loop, for expressions and op streams alike: runs
  /// from `op` with the stack top at `sp` until an op exits; leaves the
  /// stack top in `sp`.  At a statement boundary of a stream the stack is
  /// empty: `sp` is stack_top_.
  Exit run_ops(const Op* op, Value*& sp, Frame& frame);

  /// The unit a CALL (kind Subroutine) or function reference (kind
  /// Function) names; a UserError naming it when there is no such unit or
  /// `n_args` differs from its dummy count.
  ProgramUnit& callee_of(const std::string& name, UnitKind kind,
                         std::size_t n_args);
  /// Binds `site`'s actuals (evaluated in `frame`) to the callee's dummies
  /// in `inner` and runs the callee: the one argument binder of CALLs and
  /// function references.  By reference, as in Fortran: a scalar variable
  /// shares the caller's cell; an array dummy shares the actual array's
  /// payload, from the element on for an element actual; an element on a
  /// scalar dummy is copied in and back out; any other actual is an
  /// evaluated copy.  A malformed binding is a UserError naming the
  /// callee.
  Exit invoke(Frame& frame, const CallSite& site, Plan& plan, Frame& inner);
  /// Returns true if the callee executed STOP.
  bool run_call(Frame& frame, const CallSite& site);
  Value call_function(Frame& frame, const CallSite& site);

  /// Parallel and speculative loop execution (see class comment): each
  /// steps the DO whose DoEntry op is `entry` itself, `trips` times from
  /// `init`, and runs its body once per iteration.  End when the loop
  /// completed, else Return or Stop.
  Exit run_parallel_loop(Frame& frame, const Op* entry, std::int64_t init,
                         std::int64_t step, std::uint64_t trips);
  Exit run_speculative_loop(Frame& frame, const Op* entry,
                            std::int64_t init, std::int64_t step,
                            std::uint64_t trips);
  /// Runs one iteration of a driven loop's body.
  Exit run_iteration(const Op* entry, Frame& frame);
  std::size_t reduction_elements(Frame& frame, const DoStmt* d);

  /// Adds `cost` to the time being accumulated: a UserError naming the
  /// serial clock when it passes 2^64 - 1 units.
  void charge(std::uint64_t cost) {
    *cost_acc_ = clock_add(*cost_acc_, cost, "serial");
  }

  Program& program_;
  MachineConfig config_;
  CostModel costs_;
  CommonStore commons_;
  RunResult result_;
  std::uint64_t segment_cost_ = 0;   ///< cost since last clock flush
  std::uint64_t* cost_acc_ = &segment_cost_;
  bool in_parallel_ = false;
  std::uint64_t reduction_updates_ = 0;  ///< flagged-stmt executions
  std::uint64_t stmt_limit_ = 500'000'000;
  /// The active PD-test shadows: by frame slot, for accesses made in the
  /// speculative loop's own frame only.
  const Frame* shadow_frame_ = nullptr;
  std::vector<ShadowArrays*> shadow_slots_;
  std::unordered_map<const ProgramUnit*, std::unique_ptr<Plan>> plans_;
  std::vector<Value> stack_;      ///< the value stack of every evaluation
  std::size_t stack_top_ = 0;     ///< where the next evaluation starts
};

/// Convenience: run a program and return the result.
RunResult run_program(Program& program, MachineConfig config = {});

}  // namespace polaris
