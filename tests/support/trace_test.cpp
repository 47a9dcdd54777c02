// support/trace: the per-context scoped-span tracer behind `-trace=FILE`.
//
// Covers the collection lifecycle (start/stop, off-by-default, null
// collector no-ops), span nesting via ts/dur containment, instant and
// counter events, the mark/truncate unwinding hook the fault-isolation
// layer uses, in-flight spans at stop() (closed and tagged dangling, not
// dropped), the shard append path the parallel pass manager merges
// through, and that the emitted document is valid Chrome trace JSON
// (validated with the in-tree parser).
#include "support/trace.h"

#include <gtest/gtest.h>

#include "support/json.h"

namespace polaris {
namespace {

using trace::TraceCollector;
using trace::TraceSpan;

TEST(Trace, OffByDefaultAndSpansAreNoOps) {
  TraceCollector c;
  ASSERT_FALSE(c.collecting());
  {
    TraceSpan span(&c, "ghost", "test");
    span.arg("k", "v");
  }
  c.instant("ghost", "test");
  c.counter("ghost", {{"x", 1}});
  EXPECT_EQ(c.event_count(), 0u);
}

TEST(Trace, NullCollectorSpansAreNoOps) {
  TraceSpan span(nullptr, "ghost", "test");
  span.arg("k", "v");  // must not touch anything
}

TEST(Trace, CollectsSpansInstantsAndCounters) {
  TraceCollector c;
  c.start("");
  {
    TraceSpan outer(&c, "outer", "test");
    {
      TraceSpan inner(&c, "inner", "test");
      inner.arg("key", "value");
      inner.arg("n", std::uint64_t{7});
    }
    c.instant("ping", "test", {{"why", "because"}});
    c.counter("track", {{"hits", 3}, {"misses", 1}});
  }
  const auto& evs = c.events();
  ASSERT_EQ(evs.size(), 4u);
  // Spans emit at destruction: inner closes before outer.
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[0].phase, 'X');
  ASSERT_EQ(evs[0].args.size(), 2u);
  EXPECT_EQ(evs[0].args[1].second, "7");
  EXPECT_EQ(evs[1].name, "ping");
  EXPECT_EQ(evs[1].phase, 'i');
  EXPECT_EQ(evs[2].name, "track");
  EXPECT_EQ(evs[2].phase, 'C');
  EXPECT_TRUE(evs[2].numeric_args);
  EXPECT_EQ(evs[3].name, "outer");
  // Nesting falls out of ts/dur containment.
  EXPECT_LE(evs[3].ts_us, evs[0].ts_us);
  EXPECT_GE(evs[3].ts_us + evs[3].dur_us, evs[0].ts_us + evs[0].dur_us);
}

TEST(Trace, RecordAppendsPrebuiltEventsWhileCollecting) {
  TraceCollector c;
  c.record({.name = "ghost", .category = "test", .args = {}});
  EXPECT_EQ(c.event_count(), 0u);
  c.start("");
  c.record(
      {.name = "kept", .category = "test", .ts_us = 5, .dur_us = 2, .args = {}});
  ASSERT_EQ(c.event_count(), 1u);
  EXPECT_EQ(c.events()[0].name, "kept");
  EXPECT_EQ(c.events()[0].ts_us, 5u);
  EXPECT_EQ(c.events()[0].dur_us, 2u);
}

TEST(Trace, StopDisablesAndClears) {
  TraceCollector c;
  c.start("");
  c.instant("one", "test");
  EXPECT_EQ(c.event_count(), 1u);
  c.stop();
  EXPECT_FALSE(c.collecting());
  EXPECT_EQ(c.event_count(), 0u);
}

// The satellite regression: spans still in flight when the collector is
// finalized must be closed — emitted as complete events tagged dangling —
// not silently dropped, and their destructors must then be inert.
TEST(Trace, StopClosesInFlightSpansAsDangling) {
  TraceCollector c;
  c.start("");
  std::string json;
  {
    TraceSpan outer(&c, "outer", "test");
    {
      TraceSpan inner(&c, "inner", "test");
      json = c.stop();
      // Both spans were open at stop: both must be in the document,
      // innermost closed first, each tagged dangling.
      EXPECT_NE(json.find("\"inner\""), std::string::npos);
      EXPECT_NE(json.find("\"outer\""), std::string::npos);
      EXPECT_NE(json.find("\"dangling\""), std::string::npos);
      // Destructors run after stop: must not crash or resurrect events.
    }
  }
  EXPECT_EQ(c.event_count(), 0u);
  JsonValue doc = parse_json(json);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].find("name")->string_value, "inner");
  EXPECT_EQ(events->items[0].find("args")->find("dangling")->string_value,
            "true");
  EXPECT_EQ(events->items[1].find("name")->string_value, "outer");
}

TEST(Trace, ShardSharesEpochAndAppendsInOrder) {
  TraceCollector parent;
  parent.start("");
  parent.instant("parent-before", "test");

  TraceCollector shard;
  shard.start_shard_of(parent);
  ASSERT_TRUE(shard.collecting());
  shard.instant("shard-event", "test");
  {
    TraceSpan open(&shard, "shard-dangling", "test");
    parent.append(std::move(shard));
    // The shard's open span was closed by the merge; its destructor runs
    // after the append and must be a no-op.
  }
  EXPECT_FALSE(shard.collecting());
  ASSERT_EQ(parent.event_count(), 3u);
  EXPECT_EQ(parent.events()[0].name, "parent-before");
  EXPECT_EQ(parent.events()[1].name, "shard-event");
  EXPECT_EQ(parent.events()[2].name, "shard-dangling");
  // One shared timeline: shard timestamps are on the parent's epoch.
  EXPECT_GE(parent.events()[1].ts_us, parent.events()[0].ts_us);
}

TEST(Trace, ShardOfStoppedParentStaysOff) {
  TraceCollector parent;  // never started
  TraceCollector shard;
  shard.start_shard_of(parent);
  EXPECT_FALSE(shard.collecting());
  shard.instant("dropped", "test");
  parent.append(std::move(shard));
  EXPECT_EQ(parent.event_count(), 0u);
}

TEST(Trace, EmitsValidChromeTraceJson) {
  TraceCollector c;
  c.start("");
  {
    TraceSpan span(&c, "work", "cat");
    span.arg("detail", "quoted \"text\"\n");
  }
  c.counter("cache", {{"hits", 5}});
  std::string json = c.stop();
  JsonValue doc = parse_json(json);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  const JsonValue& span = events->items[0];
  EXPECT_EQ(span.find("name")->string_value, "work");
  EXPECT_EQ(span.find("ph")->string_value, "X");
  EXPECT_EQ(span.find("cat")->string_value, "cat");
  ASSERT_NE(span.find("ts"), nullptr);
  ASSERT_NE(span.find("dur"), nullptr);
  EXPECT_EQ(span.find("args")->find("detail")->string_value,
            "quoted \"text\"\n");
  const JsonValue& counter = events->items[1];
  EXPECT_EQ(counter.find("ph")->string_value, "C");
  EXPECT_EQ(counter.find("args")->find("hits")->number, 5.0);
}

}  // namespace
}  // namespace polaris
