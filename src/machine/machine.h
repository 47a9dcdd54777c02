// Simulated shared-memory multiprocessor.
//
// Substitution for the paper's 8-processor SGI Challenge (and the Alliant
// FX/80 of Figure 6): the interpreter measures per-iteration work in cost
// units; this model schedules DOALL iterations over p processors and
// charges the overheads that shape real speedup curves — fork/join,
// per-processor scheduling, reduction merging, and speculative-execution
// costs.  Deterministic by construction, so benchmark outputs are
// reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "support/assert.h"

namespace polaris {

/// How reductions are implemented (paper Section 3.2 / [14]):
///   Blocked  — updates to the shared accumulator are synchronized in
///              place: no merge phase, but every iteration pays a
///              synchronization cost (contention-bound).
///   Private  — per-processor private accumulators merged after the
///              loop (the default; merge cost per element per processor).
///   Expanded — accumulators expanded by a processor dimension in shared
///              memory: initialization plus a merge sweep.
enum class ReductionScheme { Blocked, Private, Expanded };

struct MachineConfig {
  int processors = 8;

  /// Iteration scheduling policy.  Static block scheduling is the default
  /// (contiguous chunks); Dynamic models self-scheduling — each idle
  /// processor grabs the next iteration, paying a dispatch cost per grab,
  /// which balances triangular/irregular loops at the price of overhead.
  enum class Scheduling { Static, Dynamic };
  Scheduling scheduling = Scheduling::Static;
  std::uint64_t dynamic_dispatch_cost = 8;  ///< per iteration grab (Dynamic)

  ReductionScheme reduction_scheme = ReductionScheme::Private;
  std::uint64_t blocked_sync_cost = 6;  ///< per reduction update (Blocked)

  // Overheads, in the interpreter's cost units (one unit ~ one simple op).
  std::uint64_t fork_join_cost = 1500;       ///< per parallel loop instance
  std::uint64_t per_proc_dispatch = 120;     ///< per processor per instance
  std::uint64_t reduction_merge_per_elem = 6; ///< per element per processor
  std::uint64_t lastvalue_cost = 20;         ///< per last-value variable
};

/// The UserError for the clock named `clock` ("serial" or "parallel") when
/// a time it would hold passes 2^64 - 1 units, where it would wrap.
[[noreturn, gnu::cold, gnu::noinline]] void clock_overflow(const char* clock);

/// a + b and a * b for a time in `clock`'s units, checked for overflow.
inline std::uint64_t clock_add(std::uint64_t a, std::uint64_t b,
                               const char* clock) {
  std::uint64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) [[unlikely]]
    clock_overflow(clock);
  return sum;
}
inline std::uint64_t clock_mul(std::uint64_t a, std::uint64_t b,
                               const char* clock) {
  std::uint64_t product;
  if (__builtin_mul_overflow(a, b, &product)) [[unlikely]]
    clock_overflow(clock);
  return product;
}

/// Static block scheduling: time for the slowest processor's share plus
/// fork/join and dispatch overheads.  `reduction_updates` is the number of
/// reduction-statement executions (used by the Blocked scheme).
std::uint64_t schedule_doall(const std::vector<std::uint64_t>& iter_costs,
                             const MachineConfig& config,
                             std::size_t reduction_elements = 0,
                             std::size_t lastvalue_vars = 0,
                             std::uint64_t reduction_updates = 0);

/// Work-time accounting for one program run.
struct RunClock {
  std::uint64_t serial = 0;    ///< time with 1 processor (pure sequential)
  std::uint64_t parallel = 0;  ///< modeled time on config.processors

  void add_sequential(std::uint64_t cost) {
    serial = clock_add(serial, cost, "serial");
    parallel = clock_add(parallel, cost, "parallel");
  }
  double speedup() const {
    return parallel == 0 ? 1.0
                         : static_cast<double>(serial) /
                               static_cast<double>(parallel);
  }
};

}  // namespace polaris
