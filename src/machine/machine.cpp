#include "machine/machine.h"

namespace polaris {

std::uint64_t schedule_doall(const std::vector<std::uint64_t>& iter_costs,
                             const MachineConfig& config,
                             std::size_t reduction_elements,
                             std::size_t lastvalue_vars,
                             std::uint64_t reduction_updates) {
  p_assert(config.processors >= 1);
  const std::size_t n = iter_costs.size();
  const std::size_t p = static_cast<std::size_t>(config.processors);

  std::uint64_t slowest = 0;
  if (config.scheduling == MachineConfig::Scheduling::Static) {
    // Static block distribution: processor k takes a contiguous chunk.
    const std::size_t base = n / p;
    const std::size_t extra = n % p;
    std::size_t start = 0;
    for (std::size_t k = 0; k < p && start < n; ++k) {
      std::size_t count = base + (k < extra ? 1 : 0);
      std::uint64_t sum = 0;
      for (std::size_t i = start; i < start + count; ++i)
        sum += iter_costs[i];
      slowest = std::max(slowest, sum);
      start += count;
    }
  } else {
    // Dynamic self-scheduling: iterations issued in order to the earliest
    // idle processor, each grab paying the dispatch cost.
    std::vector<std::uint64_t> busy(p, 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = 0;
      for (std::size_t j = 1; j < p; ++j)
        if (busy[j] < busy[k]) k = j;
      busy[k] += iter_costs[i] + config.dynamic_dispatch_cost;
    }
    for (std::size_t j = 0; j < p; ++j) slowest = std::max(slowest, busy[j]);
  }

  // Reduction implementation cost per the selected scheme.
  std::uint64_t reduction_cost = 0;
  const std::uint64_t elems =
      static_cast<std::uint64_t>(reduction_elements);
  switch (config.reduction_scheme) {
    case ReductionScheme::Blocked:
      // In-place synchronized updates: contention serializes a fraction
      // of every update; no merge phase.
      reduction_cost = reduction_updates * config.blocked_sync_cost;
      break;
    case ReductionScheme::Private:
      // Per-processor private accumulators, merged once at the end.
      reduction_cost =
          elems * config.reduction_merge_per_elem * (p - 1) /
          std::max<std::uint64_t>(p, 1);
      break;
    case ReductionScheme::Expanded:
      // Shared accumulators expanded by a processor dimension:
      // initialization sweep plus the merge sweep.
      reduction_cost =
          elems * config.reduction_merge_per_elem +
          elems * config.reduction_merge_per_elem * (p - 1) /
              std::max<std::uint64_t>(p, 1);
      break;
  }

  std::uint64_t active =
      std::min<std::uint64_t>(p, std::max<std::size_t>(n, 1));
  std::uint64_t overhead = config.fork_join_cost +
                           active * config.per_proc_dispatch +
                           reduction_cost +
                           static_cast<std::uint64_t>(lastvalue_vars) *
                               config.lastvalue_cost;
  return slowest + overhead;
}

}  // namespace polaris
