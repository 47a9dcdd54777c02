// Machine-speed probe.
//
// This VM's speed drifts 15-25% over minutes for allocation-heavy,
// pointer-chasing code like the compiler and interpreter, while an
// ALU-only loop stays flat.  The probe does the same kind of work —
// std::map / std::unordered_map / std::string churn — on a fixed input,
// so its time follows the drift but not the program.  Every timing the
// benchmark reports is scaled by kReferenceMs / (probe time near it).
//
// The drift differs between CPUs.  The harness thread is pinned to one
// CPU, where every single-threaded op runs; a jobs=2 compile's worker
// runs on a second one.  For such ops the probe measures both CPUs at
// once, and the jobs=2 time is scaled by their combined speed.
//
// The probe allocates only from its own arenas (buffers reserved and
// touched once at construction, served through std::pmr resources), so
// a change to the program's allocator cannot change the probe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// The two CPUs the harness uses; -1 when the process may use fewer.
struct CpuPair {
  int main = -1;   ///< the harness thread's CPU
  int other = -1;  ///< the jobs=2 worker's CPU
};

/// The last two CPUs this process may use (or {-1, -1}).
CpuPair pick_cpus();
/// Restricts the calling thread, and threads it creates from now on, to
/// the main CPU, or to both CPUs when `both` (for a jobs=2 compile).
void pin_thread(const CpuPair& cpus, bool both);

/// One probe: the same workload timed on both CPUs at the same moment.
struct ProbeTimes {
  double main_ms = 0.0;
  double other_ms = 0.0;
  /// The speed of the pair as one time: the harmonic mean, since a
  /// work-stealing compile on both CPUs finishes at their summed speed.
  double pair_ms() const { return 2.0 / (1.0 / main_ms + 1.0 / other_ms); }
};

class Probe {
 public:
  /// Probe time on a quiet run of this 4-vCPU VM; normalized timings are
  /// in "ms at the machine speed where the probe takes kReferenceMs".
  static constexpr double kReferenceMs = 25.0;

  /// Starts the helper thread that probes `cpus.other` (when there is
  /// one; otherwise other_ms repeats main_ms).
  explicit Probe(const CpuPair& cpus);
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Runs the fixed probe workload on both CPUs at once.
  ProbeTimes run();
  /// Bytes of the arenas, all resident from construction on.
  std::size_t arena_bytes() const;

 private:
  void helper_main(int cpu);

  std::vector<std::byte> main_arena_;
  std::vector<std::byte> other_arena_;
  std::uint64_t sink_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t requested_ = 0;  ///< probes asked of the helper
  std::uint64_t finished_ = 0;   ///< probes the helper completed
  double other_ms_ = 0.0;
  bool stop_ = false;
  std::thread helper_;  ///< last: starts after the state it uses exists
};

}  // namespace perfbench
