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

#include <map>
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

  struct UnitResult {
    bool returned = false;
    bool stopped = false;
  };

  /// `unit`'s lowered form, built at its first activation in the run.
  Plan& plan_of(ProgramUnit& unit);

  UnitResult execute_range(Plan& plan, Frame& frame, std::size_t pc,
                           std::size_t stop);
  UnitResult execute_statement(Plan& plan, Frame& frame, std::size_t& pc);

  void init_frame(ProgramUnit& unit, Plan& plan, Frame& frame);
  void resolve_array_bounds(Plan& plan, Frame& frame, Symbol* sym,
                            Cell* cell);

  /// Evaluates lowered code: charges its static charge, runs its ops on
  /// the value stack above every evaluation in progress, and returns the
  /// value it leaves on top (exec: the code leaves none).
  Value eval(const Code& code, Frame& frame);
  void exec(const Code& code, Frame& frame);
  /// Evaluates code of pure ops (no frame, no callee, no charge): a
  /// PARAMETER's value, folded at lowering.
  Value eval_pure(const Code& code);
  /// The value stack from stack_top_ on, with room for `code`.
  Value* stack_for(const Code& code);
  /// The one evaluator loop: runs `op` on until End with the stack top at
  /// `sp`; returns the new top.
  Value* run_ops(const Op* op, Value* sp, Frame& frame);

  /// The unit a CALL (kind Subroutine) or function reference (kind
  /// Function) names; a UserError naming it when there is no such unit or
  /// `n_args` differs from its dummy count.
  ProgramUnit& callee_of(const std::string& name, UnitKind kind,
                         std::size_t n_args);
  /// Binds `site`'s actuals (evaluated in `frame`) to `callee`'s dummies
  /// in `inner` and runs the callee: the one argument binder of CALLs and
  /// function references.  By reference, as in Fortran: a scalar variable
  /// shares the caller's cell; an array dummy shares the actual array's
  /// payload, from the element on for an element actual; an element on a
  /// scalar dummy is copied in and back out; any other actual is an
  /// evaluated copy.  A malformed binding is a UserError naming the
  /// callee.
  UnitResult invoke(Frame& frame, const CallSite& site, Frame& inner);
  /// Returns true if the callee executed STOP.
  bool run_call(Frame& frame, const CallSite& site);
  Value call_function(Frame& frame, const CallSite& site);

  /// Parallel and speculative loop execution (see class comment).  `pc`
  /// is the DO's plan entry.
  UnitResult run_parallel_loop(Plan& plan, Frame& frame, std::size_t pc,
                               std::int64_t init, std::int64_t limit,
                               std::int64_t step);
  UnitResult run_speculative_loop(Plan& plan, Frame& frame, std::size_t pc,
                                  std::int64_t init, std::int64_t limit,
                                  std::int64_t step);
  std::size_t reduction_elements(Frame& frame, const DoStmt* d);

  void charge(std::uint64_t cost) { *cost_acc_ += cost; }
  void count_statement();

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
  SymbolMap<ShadowArrays*> shadows_;  ///< active PD-test shadows
  std::unordered_map<const ProgramUnit*, std::unique_ptr<Plan>> plans_;
  std::vector<Value> stack_;      ///< the value stack of every evaluation
  std::size_t stack_top_ = 0;     ///< where the next evaluation starts
};

/// Convenience: run a program and return the result.
RunResult run_program(Program& program, MachineConfig config = {});

}  // namespace polaris
