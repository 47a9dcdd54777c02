// support/statistic: the POLARIS_STATISTIC counter layer behind
// `-stats`, CompileReport::stats, and the fault-isolation restore path.
//
// Descriptors are process-wide (the immutable catalog); values live in
// the StatisticRegistry of the CompileContext bound to the current
// thread.  These tests exercise the bridge (`++counter` inside a
// CompileContext::Scope), per-context isolation, and the shard-merge
// path the parallel pass manager uses.
#include "support/statistic.h"

#include <gtest/gtest.h>

#include "support/context.h"

namespace polaris {
namespace {

POLARIS_STATISTIC("test-stat", widgets_built, "widgets built by this test");
POLARIS_STATISTIC("test-stat", gizmos_seen, "gizmos seen by this test");

StatisticValue find_stat(const std::vector<StatisticValue>& values,
                         const std::string& name) {
  for (const StatisticValue& v : values)
    if (v.component == "test-stat" && v.name == name) return v;
  return {};
}

TEST(Statistic, RegistersAndCounts) {
  CompileContext cc;
  CompileContext::Scope scope(&cc);
  ++widgets_built;
  widgets_built += 3;
  EXPECT_EQ(cc.stats().value(widgets_built), 4u);

  StatisticValue v = find_stat(cc.stats().values(), "widgets_built");
  EXPECT_EQ(v.component, "test-stat");
  EXPECT_EQ(v.desc, "widgets built by this test");
  EXPECT_EQ(v.value, 4u);
}

TEST(Statistic, BumpOutsideAnyContextIsANoOp) {
  ASSERT_EQ(CompileContext::current(), nullptr);
  ++widgets_built;  // must not crash, must not count anywhere
  CompileContext cc;
  EXPECT_EQ(cc.stats().value(widgets_built), 0u);
}

TEST(Statistic, ContextsCountIndependently) {
  CompileContext a, b;
  {
    CompileContext::Scope scope(&a);
    widgets_built += 2;
    {
      // Scopes nest; the inner binding wins while alive.
      CompileContext::Scope inner(&b);
      ++widgets_built;
    }
    ++widgets_built;
  }
  EXPECT_EQ(a.stats().value(widgets_built), 3u);
  EXPECT_EQ(b.stats().value(widgets_built), 1u);
}

TEST(Statistic, DeltaSinceReportsOnlyMovedCounters) {
  CompileContext cc;
  CompileContext::Scope scope(&cc);
  StatisticSnapshot base = cc.stats().snapshot();
  ++gizmos_seen;
  ++gizmos_seen;
  std::vector<StatisticValue> delta = cc.stats().delta_since(base);
  StatisticValue moved = find_stat(delta, "gizmos_seen");
  EXPECT_EQ(moved.value, 2u);
  // widgets_built did not move between snapshot and delta: absent.
  EXPECT_TRUE(find_stat(delta, "widgets_built").name.empty());
}

TEST(Statistic, MergeSumsShardCounters) {
  CompileContext parent, shard;
  {
    CompileContext::Scope scope(&parent);
    ++widgets_built;
  }
  {
    CompileContext::Scope scope(&shard);
    widgets_built += 4;
    ++gizmos_seen;
  }
  parent.merge_shard(shard);
  EXPECT_EQ(parent.stats().value(widgets_built), 5u);
  EXPECT_EQ(parent.stats().value(gizmos_seen), 1u);
}

}  // namespace
}  // namespace polaris
