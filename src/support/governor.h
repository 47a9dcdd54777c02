// ResourceGovernor: deterministic resource ceilings with conservative
// degradation.
//
// Polaris's stance (and this repo's): expensive symbolic machinery must
// *degrade*, never crash or hang.  The governor bounds symbolic blow-up
// (polynomial term growth, atom-table growth, simplifier recursion) and
// the compile's total symbolic work:
//
//   - Symbolic ceilings.  `-max-poly-terms=N` bounds the term count of any
//     one Polynomial, `-max-atoms-per-unit=N` bounds the (per-shard)
//     AtomTable.  Checked at the handful of sites where symbolic state
//     grows (AtomTable::intern, Polynomial term insertion/normalization).
//   - A whole-compile budget, `-compile-budget-ms=N`, the compiler's only
//     budget.  Wall deadlines are irreproducible — the same compile at
//     `-jobs=1` and `-jobs=8` would degrade at different points and the
//     artifacts would diverge — so the budget is *fuel*: N ×
//     kFuelTicksPerMs logical work ticks, charged at deterministic
//     symbolic-work sites (atom interns, term normalizations, every
//     Expression→Polynomial conversion node, range-test masks).  The same
//     idiom as Z3's rlimit: ms-calibrated on a nominal machine,
//     bit-reproducible on every machine.  Under `-jobs=N` each
//     unit shard receives an equal share of the parent's remaining fuel
//     (`shard_fuel_share`), computed before any worker runs, so the
//     degradation points are identical at any worker count.
//
// A tripped ceiling throws ResourceBlowup.  The dependence testers and the
// simplifier catch it at their query boundaries and return the
// conservative answer ("assume dependence" / "unsimplified"); anything
// that escapes to the pass boundary engages the *degradation ladder* in
// the pass manager (see driver/pass_manager.cpp): retry the (pass, unit)
// with cheaper switches — `degraded_options` rungs "reduced" then "floor"
// — before finally dropping the pass.
// Every step is recorded as a DegradationEvent (surfaced in
// CompileReport::degradations and `-report-json`) and as a remark with a
// closed reason code.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace polaris {

struct Options;

/// Which ceiling tripped.  Closed set; to_string values appear verbatim in
/// report JSON and remarks, so additions are schema-visible.
enum class GovernorTrigger {
  CompileFuel,  ///< `-compile-budget-ms` deterministic fuel exhausted
  PolyTerms,    ///< `-max-poly-terms` polynomial term ceiling
  AtomCeiling,  ///< `-max-atoms-per-unit` atom-table ceiling
};
const char* to_string(GovernorTrigger t);
constexpr int kGovernorTriggers = 3;

/// Thrown by governor check sites when a ceiling trips.  Deliberately NOT
/// an InternalError: fault isolation classifies InternalError as an
/// assertion failure, while a resource trip is an expected, recoverable
/// condition with its own conservative handling (query bail-out or
/// ladder).
class ResourceBlowup : public std::exception {
 public:
  ResourceBlowup(GovernorTrigger trigger, std::string detail)
      : trigger_(trigger), detail_(std::move(detail)) {
    what_ = std::string("resource ceiling tripped [") +
            polaris::to_string(trigger_) + "]: " + detail_;
  }
  GovernorTrigger trigger() const { return trigger_; }
  const std::string& detail() const { return detail_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  GovernorTrigger trigger_;
  std::string detail_;
  std::string what_;
};

/// One step of resource-governed degradation: a ladder retry, a final
/// pass drop, or an aggregated run of conservative query bail-outs.
/// Serialized into report JSON (`"degradations"`) and compared
/// byte-for-byte across `-jobs=N` in the determinism battery, so every
/// field must be deterministic.
struct DegradationEvent {
  std::string pass;     ///< pass being governed ("doall", ...)
  std::string unit;     ///< unit name ("trfd", ...)
  std::string trigger;  ///< to_string(GovernorTrigger)
  /// Closed action set: "retry-reduced" | "retry-floor" | "drop-pass" |
  /// "conservative-bailout".
  std::string action;
  /// Bail-out site ("rangetest" | "ddtest" | "simplify"); empty for
  /// ladder steps.
  std::string site;
  int rung = 0;              ///< ladder rung the event applies to
  std::uint64_t count = 1;   ///< aggregated occurrences (bail-outs)
  std::string detail;        ///< human-readable specifics
};

/// The governor's meters: fuel spent and trips per trigger.  Never
/// unwound: a failed attempt's meters are carried into the shard that
/// replays its group, and a finished shard's into its parent.
struct GovernorMeters {
  std::uint64_t fuel = 0;
  std::uint64_t trips[kGovernorTriggers] = {};
};
/// Meter-wise difference (`a` must be a later reading than `b`).
GovernorMeters operator-(const GovernorMeters& a, const GovernorMeters& b);

/// Hard limits for one compilation (or one unit shard).  0 = unlimited
/// throughout.
struct GovernorLimits {
  std::uint64_t fuel = 0;        ///< logical work ticks
  std::size_t max_poly_terms = 0;
  std::size_t max_atoms = 0;
};

/// Fuel calibration: logical work ticks per "millisecond" of
/// `-compile-budget-ms`.  Chosen so a budget that would plausibly cover a
/// compile in wall time also covers it in fuel on a nominal machine; the
/// exact value only shifts where hostile budgets degrade, never
/// correctness, and is pinned here so artifacts stay comparable across
/// PRs.
constexpr std::uint64_t kFuelTicksPerMs = 50000;

/// Derives the governor limits `opts` asks for (fuel from
/// compile_budget_ms via kFuelTicksPerMs).
GovernorLimits limits_from_options(const Options& opts);

/// Ladder rungs tried per (pass, unit) before the pass is dropped:
/// rung 0 = the user's options, 1 = "reduced", 2 = "floor".
constexpr int kLadderRungs = 3;
const char* ladder_rung_name(int rung);

/// The cheaper-switch derivation for ladder rung `rung`: progressively
/// lower search limits (max_loop_permutations and a simplify depth limit)
/// while leaving every correctness-relevant switch alone.  Rung 0 returns
/// `base` unchanged; the floor rung additionally turns the range test off
/// (linear tests only — the "current compiler" baseline shape).
Options degraded_options(const Options& base, int rung);

/// Per-compilation (per-shard) resource accountant, owned by
/// CompileContext.  Inactive (all limits 0, no simplify depth) costs one
/// thread-local read and a branch per check site — the same class of
/// overhead as a fault tick.
class ResourceGovernor {
 public:
  /// Installs limits.  Never resets the meters or recorded events: the
  /// pipeline reconfigures the governor mid-compile and the meters must
  /// keep running.
  void configure(const GovernorLimits& limits);

  /// Simplify recursion depth limit for the *current ladder attempt*
  /// (simplify() has no Options parameter, so the attempt switch lives
  /// here).  0 = unlimited.
  void set_simplify_depth_limit(int depth);
  int simplify_depth_limit() const { return simplify_depth_; }

  /// True when any ceiling or attempt switch is installed — the one
  /// branch every check site takes on the ungoverned path.
  bool active() const { return active_; }

  /// The thread's active governor: CompileContext::current()'s governor
  /// if a context is bound and its governor is active, else null.  The
  /// bridge for symbolic code (poly.cpp, simplify.cpp) that has no
  /// context parameter.
  static ResourceGovernor* current();

  // --- ceilings (throw ResourceBlowup) -----------------------------------
  /// Consumes `ticks` fuel; throws CompileFuel once the meter crosses the
  /// limit.  Saturates, never wraps.
  void charge(std::uint64_t ticks);
  /// Polynomial about to hold `terms` terms.
  void check_poly_terms(std::size_t terms);
  /// AtomTable about to hold `atoms` atoms.
  void check_atoms(std::size_t atoms);

  /// Bumps the trip counter for `t`.  Called at every throw site so
  /// insight can aggregate how often each ceiling fired.  Counters are
  /// meters like fuel: a ladder retry does not un-trip the ceiling that
  /// caused it.
  void note_trip(GovernorTrigger t);

  std::uint64_t fuel_limit() const { return fuel_limit_; }
  std::uint64_t fuel_spent() const { return meters_.fuel; }
  std::uint64_t fuel_remaining() const {
    return meters_.fuel >= fuel_limit_ ? 0 : fuel_limit_ - meters_.fuel;
  }
  /// Equal split of the remaining fuel across `n_units` shards, floored
  /// at 1 tick so an exhausted parent yields exhausted (not unlimited)
  /// shards.  0 when no fuel limit is set.
  std::uint64_t shard_fuel_share(std::size_t n_units) const;

  GovernorMeters meters() const { return meters_; }
  /// Adds meters run up elsewhere — a finished shard's, or a failed
  /// attempt's whose shard was discarded (fuel saturates).
  void add_meters(const GovernorMeters& m);

  // --- attribution scope --------------------------------------------------
  /// The (pass, unit) new events are attributed to; set by the pass
  /// manager alongside the fault-injection scope.
  void set_scope(const std::string& pass, const std::string& unit);
  void clear_scope();
  const std::string& scope_pass() const { return scope_pass_; }
  const std::string& scope_unit() const { return scope_unit_; }

  // --- events -------------------------------------------------------------
  void record_event(DegradationEvent ev);
  /// Records a conservative query bail-out at `site` under the current
  /// scope, aggregating into an existing matching event when possible.
  /// Returns true when this created a new event (the caller emits the
  /// once-per-(pass,unit,site) remark on true).
  bool note_bailout(const char* site, GovernorTrigger trigger);
  const std::vector<DegradationEvent>& events() const { return events_; }
  /// Appends a shard's events (already in that unit's deterministic
  /// order) and folds its meters; called by CompileContext::merge_shard
  /// in unit index order.
  void absorb(ResourceGovernor& shard);

 private:
  void recompute_active();

  std::uint64_t fuel_limit_ = 0;
  GovernorMeters meters_;
  std::size_t max_poly_terms_ = 0;
  std::size_t max_atoms_ = 0;
  int simplify_depth_ = 0;
  bool active_ = false;
  std::string scope_pass_;
  std::string scope_unit_;
  std::vector<DegradationEvent> events_;
};

/// The one-call bail-out recorder for conservative catch sites (dep
/// testers, simplifier): attributes the blow-up to the thread's governed
/// compile, aggregates repeat bail-outs at the same (pass, unit, site,
/// trigger), and emits a `resource-bailout` analysis remark for the first
/// occurrence.  No-op outside a compile scope.
void note_conservative_bailout(const char* site, const ResourceBlowup& b);

}  // namespace polaris
