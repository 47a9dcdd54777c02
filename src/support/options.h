// Compiler switch registry.
//
// Polaris exposes user switches for each major transformation (the paper
// notes, e.g., that reduction parallelization may be disabled because
// partial-sum reassociation can change floating-point results).  Options is
// a plain value type: the driver owns one, passes receive it by const
// reference.
#pragma once

#include <string>

#include "support/assert.h"

namespace polaris {

struct Options {
  // --- analysis / transformation switches ---------------------------------
  bool inline_expansion = true;    ///< interprocedural analysis via inlining
  bool induction_subst = true;     ///< induction variable substitution
  bool cascaded_induction = true;  ///< inductions of inductions (Fig. 1)
  bool triangular_induction = true;  ///< inductions in non-rectangular nests
  bool multiplicative_induction = true;  ///< geometric recurrences K = K*c
  bool reductions = true;          ///< reduction recognition/transformation
  bool histogram_reductions = true;  ///< array (histogram) reductions
  bool scalar_privatization = true;
  bool array_privatization = true;
  bool range_test = true;          ///< symbolic nonlinear dependence test
  bool gcd_test = true;
  bool banerjee_test = true;
  bool gsa_queries = true;         ///< demand-driven GSA backward substitution
  bool forward_substitution = true;  ///< propagate scalar defs into uses
  bool loop_normalization = true;  ///< rewrite constant-step loops to unit step
  bool pure_functions = true;      ///< calls to pure functions don't serialize
  bool strength_reduction = true;  ///< reduce substituted induction exprs
  bool runtime_pd_test = false;    ///< speculative run-time parallelization

  // --- limits --------------------------------------------------------------
  int max_inline_depth = 8;        ///< recursion guard for the inliner driver
  /// Range-test visitation orders: each query tries fixed-subset masks in
  /// ascending order, at most 2 * max_loop_permutations of them.
  int max_loop_permutations = 24;

  // --- resource governor ----------------------------------------------------
  /// Whole-compile budget (`-compile-budget-ms=N` / POLARIS_COMPILE_BUDGET_MS)
  /// enforced as *deterministic fuel*: N × kFuelTicksPerMs logical work
  /// ticks charged at symbolic-work sites, split equally across unit
  /// shards — so a budgeted compile degrades at identical points at any
  /// `-jobs=N` and the artifacts stay byte-identical.  0 disables.
  double compile_budget_ms = 0.0;
  /// Ceiling on any one Polynomial's term count (`-max-poly-terms=N` /
  /// POLARIS_MAX_POLY_TERMS).  A query whose polynomial would exceed it
  /// bails out conservatively (assume dependence / leave unsimplified).
  /// 0 disables.
  int max_poly_terms = 0;
  /// Ceiling on the per-shard AtomTable (`-max-atoms-per-unit=N` /
  /// POLARIS_MAX_ATOMS_PER_UNIT).  0 disables.
  int max_atoms_per_unit = 0;
  /// Simplifier recursion depth limit; 0 = unlimited.  Not exposed as a
  /// flag — the degradation ladder sets it on retry rungs.
  int max_simplify_depth = 0;
  /// Retry an over-budget (pass, unit) on cheaper ladder rungs (reduced,
  /// floor) before dropping the pass.  When false, overruns drop the pass
  /// immediately (the pre-ladder behavior).
  bool degradation_ladder = true;

  // --- pipeline -------------------------------------------------------------
  /// Empty: the standard battery.  Otherwise a comma-separated `-passes=`
  /// spec ("constprop,doall") consumed by PassPipeline::from_options.
  std::string pipeline_spec;

  // --- fault isolation ------------------------------------------------------
  /// Roll a failing pass back — restore its unit from the group's
  /// checkpoint and replay the group without it — and continue with the
  /// remaining passes (the LRPD shape: degrade to "less optimized, still
  /// correct").  When false, pass failures propagate as
  /// InternalError, aborting the compile.
  bool fault_recovery = true;
  /// Run the structural IR verifier after every pass; violations are
  /// treated like assertion failures (rollback or abort per
  /// fault_recovery).  The verifier always runs once after the pipeline
  /// regardless of this switch.
  bool verify_each = false;
  /// Deterministic fault-injection spec "PASS[:UNIT[:N]]" (empty: off);
  /// armed by the driver for the duration of the pipeline.
  std::string fault_inject;

  // --- parallel compilation -------------------------------------------------
  /// Worker threads for unit-scope pass groups (`-jobs=N` / POLARIS_JOBS).
  /// Units are independent after state isolation (CompileContext shards),
  /// so groups fan out over them; 1 = run shards inline on the driver
  /// thread.  Output is byte-identical for every N: shards merge in unit
  /// order.  The CLI validates and caps at the CPUs in its affinity mask.
  int jobs = 1;

  // --- observability --------------------------------------------------------
  /// When non-empty, the compiler collects a hierarchical span trace for
  /// the compilation and writes Chrome trace-event JSON here (`-trace=` /
  /// POLARIS_TRACE).  Empty: tracing fully disabled (one branch per site).
  std::string trace_path;

  /// "Current compiler" (PFA-like) baseline: linear tests only, scalar
  /// privatization only, simple inductions, no inlining, no range test.
  static Options baseline();
  /// Full Polaris configuration (the defaults above).
  static Options polaris();

  /// Sets a switch by name ("range_test", "reductions", ...); asserts on
  /// unknown names so tests catch typos.
  void set(const std::string& name, bool value);
};

}  // namespace polaris
