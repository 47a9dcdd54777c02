// The Privatizing DOALL (PD) test — run-time dependence detection
// (paper Section 3.5; Rauchwerger & Padua [15, 16]).
//
// During speculative parallel execution of a loop, every access to an
// array under test marks shadow arrays:
//   A_w  — marked on the first write to an element in an iteration
//   A_r  — marked for elements read but never written during an iteration
//   A_np — marked for elements read before being written in an iteration
//          (such an element cannot be privatized)
// plus the counters w_A (total first-writes across iterations) and m_A
// (distinct marked cells of A_w).  After the loop:
//   any(A_w & A_r)            => flow/anti dependence (fatal)
//   w_A != m_A                => output dependence (fatal unless privatized)
//   any(A_w & A_np)           => privatization invalid
// The test itself is fully parallel with time O(a/p + log p).
#pragma once

#include <cstdint>
#include <vector>

#include "support/assert.h"

namespace polaris {

struct PdVerdict {
  bool flow_anti = false;      ///< any(A_w & A_r)
  bool output_deps = false;    ///< w_A != m_A
  bool not_privatizable = false;  ///< any(A_w & A_np)

  /// Fully parallel as-is (shared array)?
  bool parallel_shared() const { return !flow_anti && !output_deps; }
  /// Fully parallel with the array privatized per iteration?
  bool parallel_privatized() const { return !flow_anti && !not_privatizable; }
  /// The combined PD outcome: parallel either way.
  bool pass() const { return parallel_shared() || parallel_privatized(); }
};

/// Shadow arrays for one array under test: one byte per element, holding
/// the element's state in the current iteration (two bits) and its A_w,
/// A_r and A_np marks (three bits).  The elements an iteration touched are
/// listed beside the bytes, so ending the iteration visits only those.
class ShadowArrays {
 public:
  explicit ShadowArrays(std::size_t elements) : shadow_(elements, 0) {}

  /// Iteration protocol: begin, record accesses in program order, end.
  void begin_iteration() {
    p_assert_msg(!in_iteration_, "nested begin_iteration");
    in_iteration_ = true;
  }
  void record_read(std::size_t index) {
    std::uint8_t& e = access(index);
    if ((e & kState) == 0) {
      e |= kReadFirst;
      touched_.push_back(index);
    }
  }
  void record_write(std::size_t index) {
    std::uint8_t& e = access(index);
    if (e & kWritten) return;  // only the first write of an iteration marks
    if ((e & kState) == 0) touched_.push_back(index);
    e |= kWritten;
    ++w_count_;
    if (!(e & kMarkW)) {
      e |= kMarkW;
      ++m_count_;
    }
  }
  void end_iteration() {
    p_assert(in_iteration_);
    for (std::size_t index : touched_) {
      std::uint8_t& e = shadow_[index];
      switch (e & kState) {
        case kReadFirst:
          e |= kMarkR;
          break;
        case kReadFirst | kWritten:
          e |= kMarkNp;
          break;
        case kWritten:
          break;
        default:
          p_unreachable("touched element with no state");
      }
      e &= static_cast<std::uint8_t>(~kState);
    }
    touched_.clear();
    in_iteration_ = false;
  }

  PdVerdict analyze() const;

  /// Modeled cost of marking plus the parallel post-analysis on p
  /// processors: O(a/p + log p) per the paper.
  std::uint64_t cost(int processors) const;

 private:
  // An element's byte.  The state is 0 before the iteration's first
  // access, kReadFirst after a read with no write before it, kWritten when
  // the first access was a write, and both after a read then a write.
  static constexpr std::uint8_t kReadFirst = 1;
  static constexpr std::uint8_t kWritten = 2;
  static constexpr std::uint8_t kState = kReadFirst | kWritten;
  static constexpr std::uint8_t kMarkW = 4;   ///< A_w
  static constexpr std::uint8_t kMarkR = 8;   ///< A_r
  static constexpr std::uint8_t kMarkNp = 16; ///< A_np

  /// `index`'s byte, for an access of the open iteration.
  std::uint8_t& access(std::size_t index) {
    p_assert(in_iteration_);
    p_assert_msg(index < shadow_.size(), "shadow index out of range");
    ++accesses_;
    return shadow_[index];
  }

  std::vector<std::uint8_t> shadow_;
  std::vector<std::size_t> touched_;  // indices dirtied this iteration
  bool in_iteration_ = false;
  std::uint64_t w_count_ = 0;
  std::uint64_t m_count_ = 0;
  std::uint64_t accesses_ = 0;
};

}  // namespace polaris
