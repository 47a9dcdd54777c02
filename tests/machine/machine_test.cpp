#include "machine/machine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace polaris {
namespace {

MachineConfig cheap(int p) {
  MachineConfig c;
  c.processors = p;
  c.fork_join_cost = 0;
  c.per_proc_dispatch = 0;
  c.reduction_merge_per_elem = 0;
  c.lastvalue_cost = 0;
  return c;
}

TEST(MachineTest, PerfectSplitWithoutOverheads) {
  std::vector<std::uint64_t> iters(8, 100);
  EXPECT_EQ(schedule_doall(iters, cheap(8)), 100u);
  EXPECT_EQ(schedule_doall(iters, cheap(4)), 200u);
  EXPECT_EQ(schedule_doall(iters, cheap(1)), 800u);
}

TEST(MachineTest, UnevenRemainderGoesToEarlyProcessors) {
  std::vector<std::uint64_t> iters(10, 100);
  // p=4: chunks 3,3,2,2 -> slowest 300.
  EXPECT_EQ(schedule_doall(iters, cheap(4)), 300u);
}

TEST(MachineTest, ImbalancedIterations) {
  // One heavy iteration dominates regardless of p.
  std::vector<std::uint64_t> iters(8, 10);
  iters[3] = 1000;
  EXPECT_GE(schedule_doall(iters, cheap(8)), 1000u);
}

TEST(MachineTest, OverheadsAdded) {
  MachineConfig c = cheap(4);
  c.fork_join_cost = 500;
  c.per_proc_dispatch = 10;
  std::vector<std::uint64_t> iters(4, 100);
  EXPECT_EQ(schedule_doall(iters, c), 100u + 500u + 4u * 10u);
}

TEST(MachineTest, ReductionMergeCost) {
  MachineConfig c = cheap(4);
  c.reduction_merge_per_elem = 8;
  std::vector<std::uint64_t> iters(4, 100);
  std::uint64_t with = schedule_doall(iters, c, /*reduction_elements=*/64);
  std::uint64_t without = schedule_doall(iters, c, 0);
  EXPECT_GT(with, without);
}

TEST(MachineTest, EmptyLoopIsJustOverhead) {
  MachineConfig c = cheap(4);
  c.fork_join_cost = 100;
  std::vector<std::uint64_t> none;
  EXPECT_EQ(schedule_doall(none, c), 100u);
}

TEST(MachineTest, RunClockSpeedup) {
  RunClock clock;
  clock.add_sequential(1000);
  EXPECT_DOUBLE_EQ(clock.speedup(), 1.0);
  clock.serial += 7000;
  clock.parallel += 1000;
  EXPECT_DOUBLE_EQ(clock.speedup(), 4.0);
}

/// The message of the UserError `f` raises, or "" when it raises none.
template <typename F>
std::string user_error_of(F f) {
  try {
    f();
  } catch (const UserError& e) {
    return e.what();
  }
  return "";
}

TEST(MachineTest, ClockOverflowIsAUserErrorNamingTheClock) {
  const std::string parallel = "parallel clock overflows 2^64 - 1 units";
  const std::vector<std::uint64_t> iters{UINT64_MAX - 1, 2};
  // One processor's chunk sums both iterations; two processors' fit.
  EXPECT_EQ(user_error_of([&] { schedule_doall(iters, cheap(1)); }),
            parallel);
  EXPECT_EQ(schedule_doall(iters, cheap(2)), UINT64_MAX - 1);
  // The overheads on top of the slowest chunk.
  MachineConfig c = cheap(2);
  c.fork_join_cost = 2;
  EXPECT_EQ(user_error_of([&] { schedule_doall(iters, c); }), parallel);
  // A processor's self-scheduled iterations and their dispatch cost.
  c = cheap(2);
  c.scheduling = MachineConfig::Scheduling::Dynamic;
  c.dynamic_dispatch_cost = 2;
  EXPECT_EQ(user_error_of([&] { schedule_doall(iters, c); }), parallel);
  // The reduction merge: elements times their cost per element.
  c = cheap(2);
  c.reduction_merge_per_elem = 3;
  EXPECT_EQ(user_error_of([&] { schedule_doall({1}, c, UINT64_MAX / 2); }),
            parallel);

  RunClock clock;
  clock.add_sequential(UINT64_MAX);
  EXPECT_EQ(clock.serial, UINT64_MAX);
  EXPECT_EQ(user_error_of([&] { clock.add_sequential(1); }),
            "serial clock overflows 2^64 - 1 units");
}

TEST(MachineTest, SpeedupSaturatesWithOverheads) {
  // Fixed overhead bounds speedup below p (Amdahl-like shape).
  std::vector<std::uint64_t> iters(64, 100);
  MachineConfig base = cheap(1);
  std::uint64_t serial = schedule_doall(iters, base);
  double last = 0.0;
  for (int p : {2, 4, 8, 16}) {
    MachineConfig c = cheap(p);
    c.fork_join_cost = 800;
    double s = static_cast<double>(serial) /
               static_cast<double>(schedule_doall(iters, c));
    EXPECT_GT(s, last);
    EXPECT_LT(s, p);
    last = s;
  }
}

}  // namespace
}  // namespace polaris

namespace polaris {
namespace {

TEST(MachineTest, ReductionSchemesOrdering) {
  // With many updates and few elements, Blocked pays per update while
  // Private pays per element: Private must win; Expanded costs more than
  // Private (extra initialization sweep).
  std::vector<std::uint64_t> iters(64, 100);
  MachineConfig c;
  c.processors = 8;
  c.fork_join_cost = 0;
  c.per_proc_dispatch = 0;
  c.lastvalue_cost = 0;
  c.reduction_merge_per_elem = 6;
  c.blocked_sync_cost = 6;

  auto with_scheme = [&](ReductionScheme s) {
    MachineConfig m = c;
    m.reduction_scheme = s;
    return schedule_doall(iters, m, /*elements=*/4, /*lastvalues=*/0,
                          /*updates=*/6400);
  };
  std::uint64_t blocked = with_scheme(ReductionScheme::Blocked);
  std::uint64_t priv = with_scheme(ReductionScheme::Private);
  std::uint64_t expanded = with_scheme(ReductionScheme::Expanded);
  EXPECT_LT(priv, blocked);
  EXPECT_LT(priv, expanded);
  EXPECT_LT(expanded, blocked);
}

TEST(MachineTest, BlockedWinsForHugeSparseAccumulators) {
  // A large histogram touched a few times: merging every element is
  // wasteful, synchronized in-place updates are cheap.
  std::vector<std::uint64_t> iters(64, 100);
  MachineConfig c;
  c.processors = 8;
  c.fork_join_cost = 0;
  c.per_proc_dispatch = 0;
  auto with_scheme = [&](ReductionScheme s) {
    MachineConfig m = c;
    m.reduction_scheme = s;
    return schedule_doall(iters, m, /*elements=*/100000, 0, /*updates=*/64);
  };
  EXPECT_LT(with_scheme(ReductionScheme::Blocked),
            with_scheme(ReductionScheme::Private));
}

}  // namespace
}  // namespace polaris

namespace polaris {
namespace {

TEST(MachineTest, DynamicSchedulingBalancesTriangularWork) {
  // Triangular per-iteration cost (like BDNA's outer loop): static block
  // scheduling loads the last chunk heaviest; self-scheduling balances.
  std::vector<std::uint64_t> iters;
  for (int i = 1; i <= 128; ++i)
    iters.push_back(static_cast<std::uint64_t>(i) * 10);
  MachineConfig stat;
  stat.processors = 8;
  stat.fork_join_cost = 0;
  stat.per_proc_dispatch = 0;
  MachineConfig dyn = stat;
  dyn.scheduling = MachineConfig::Scheduling::Dynamic;
  dyn.dynamic_dispatch_cost = 4;
  EXPECT_LT(schedule_doall(iters, dyn), schedule_doall(iters, stat));
}

TEST(MachineTest, DynamicDispatchCostHurtsUniformWork) {
  std::vector<std::uint64_t> iters(128, 50);
  MachineConfig stat;
  stat.processors = 8;
  stat.fork_join_cost = 0;
  stat.per_proc_dispatch = 0;
  MachineConfig dyn = stat;
  dyn.scheduling = MachineConfig::Scheduling::Dynamic;
  dyn.dynamic_dispatch_cost = 20;
  EXPECT_GT(schedule_doall(iters, dyn), schedule_doall(iters, stat));
}

}  // namespace
}  // namespace polaris
