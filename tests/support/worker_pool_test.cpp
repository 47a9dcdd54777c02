#include "support/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace polaris {
namespace {

TEST(WorkerPoolTest, RunsEveryTaskOnce) {
  WorkerPool pool;
  std::vector<std::atomic<int>> hits(37);
  pool.run(hits.size(), 3, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.threads_spawned(), 2);
  // One participant runs inline and spawns nothing.
  WorkerPool inline_pool;
  inline_pool.run(5, 1, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(inline_pool.threads_spawned(), 0);
}

#ifdef __linux__
TEST(WorkerPoolTest, SpawnedWorkerRunsOnItsOwnCpu) {
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  if (CPU_COUNT(&mask) < 2) GTEST_SKIP() << "fewer than 2 usable CPUs";
  // Each task waits for the other to start, so the worker must run one of
  // them while the caller runs the other; each records the CPU it started
  // on.  A worker left on its parent's CPU in a cpuset without load
  // balancing shares the caller's CPU in every batch.  A balancing kernel
  // may still wake a placed worker next to its caller now and then, so
  // one batch of three on fresh pools that shows two CPUs suffices.
  bool apart = false;
  for (int attempt = 0; attempt < 3 && !apart; ++attempt) {
    WorkerPool pool;
    std::atomic<int> started{0};
    int cpus[2] = {-1, -1};
    pool.run(2, 2, [&](std::size_t i) {
      cpus[i] = sched_getcpu();
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
    ASSERT_EQ(started.load(), 2);
    apart = cpus[0] != cpus[1];
  }
  EXPECT_TRUE(apart) << "caller and worker shared one CPU in 3 batches";
}
#endif

}  // namespace
}  // namespace polaris
