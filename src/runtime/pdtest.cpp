#include "runtime/pdtest.h"

namespace polaris {

PdVerdict ShadowArrays::analyze() const {
  p_assert_msg(!in_iteration_, "analyze during an open iteration");
  PdVerdict v;
  for (std::uint8_t e : shadow_) {
    if ((e & (kMarkW | kMarkR)) == (kMarkW | kMarkR)) v.flow_anti = true;
    if ((e & (kMarkW | kMarkNp)) == (kMarkW | kMarkNp))
      v.not_privatizable = true;
  }
  v.output_deps = (w_count_ != m_count_);
  return v;
}

std::uint64_t ShadowArrays::cost(int processors) const {
  p_assert(processors >= 1);
  const std::uint64_t mark_cost = 2;   // per access marking
  const std::uint64_t merge_cost = 4;  // per element per merge stage
  std::uint64_t per_proc = accesses_ * mark_cost /
                           static_cast<std::uint64_t>(processors);
  std::uint64_t stages = 0;
  for (int p = 1; p < processors; p *= 2) ++stages;
  std::uint64_t merge =
      stages * merge_cost *
      (shadow_.size() / static_cast<std::uint64_t>(processors) + 1);
  return per_proc + merge;
}

}  // namespace polaris
