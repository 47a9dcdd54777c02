// PD test shadow-array semantics (paper Section 3.5.2).
#include "runtime/pdtest.h"

#include <gtest/gtest.h>

namespace polaris {
namespace {

TEST(PdTestTest, DisjointWritesPass) {
  // Iteration i writes element i: fully parallel, no privatization needed.
  ShadowArrays sh(10);
  for (std::size_t i = 0; i < 10; ++i) {
    sh.begin_iteration();
    sh.record_write(i);
    sh.end_iteration();
  }
  PdVerdict v = sh.analyze();
  EXPECT_TRUE(v.parallel_shared());
  EXPECT_TRUE(v.pass());
  EXPECT_FALSE(v.flow_anti);
  EXPECT_FALSE(v.output_deps);
}

TEST(PdTestTest, FlowDependenceFails) {
  // Iteration 0 writes element 5; iteration 1 reads it.
  ShadowArrays sh(10);
  sh.begin_iteration();
  sh.record_write(5);
  sh.end_iteration();
  sh.begin_iteration();
  sh.record_read(5);
  sh.end_iteration();
  PdVerdict v = sh.analyze();
  EXPECT_TRUE(v.flow_anti);
  EXPECT_FALSE(v.pass());
}

TEST(PdTestTest, AntiDependenceFails) {
  // Iteration 0 reads element 5; iteration 1 writes it.
  ShadowArrays sh(10);
  sh.begin_iteration();
  sh.record_read(5);
  sh.end_iteration();
  sh.begin_iteration();
  sh.record_write(5);
  sh.end_iteration();
  PdVerdict v = sh.analyze();
  EXPECT_TRUE(v.flow_anti);
  EXPECT_FALSE(v.output_deps);
  EXPECT_FALSE(v.pass());
}

TEST(PdTestTest, PrivatizableTemporaryPasses) {
  // Every iteration writes element 0 then reads it: invalid shared (output
  // deps) but valid privatized.
  ShadowArrays sh(4);
  for (int i = 0; i < 3; ++i) {
    sh.begin_iteration();
    sh.record_write(0);
    sh.record_read(0);
    sh.end_iteration();
  }
  PdVerdict v = sh.analyze();
  EXPECT_FALSE(v.flow_anti);         // reads follow same-iteration writes
  EXPECT_TRUE(v.output_deps);        // w=3 marks=1
  EXPECT_FALSE(v.not_privatizable);
  EXPECT_FALSE(v.parallel_shared());
  EXPECT_TRUE(v.parallel_privatized());
  EXPECT_TRUE(v.pass());
}

TEST(PdTestTest, ReadBeforeWriteNotPrivatizable) {
  // Iterations read element 0 before writing it: A_np marked.
  ShadowArrays sh(4);
  for (int i = 0; i < 2; ++i) {
    sh.begin_iteration();
    sh.record_read(0);
    sh.record_write(0);
    sh.end_iteration();
  }
  PdVerdict v = sh.analyze();
  EXPECT_TRUE(v.not_privatizable);
  EXPECT_TRUE(v.output_deps);
  EXPECT_FALSE(v.pass());
}

TEST(PdTestTest, ReadWrittenAndReadAgainMarksNpNotR) {
  // One iteration reads element 2, writes it and reads it again: the read
  // before the write marks A_np at the end of the iteration, and nothing
  // marks A_r, so there is no flow dependence.
  ShadowArrays sh(4);
  sh.begin_iteration();
  sh.record_read(2);
  sh.record_write(2);
  sh.record_read(2);
  sh.end_iteration();
  PdVerdict v = sh.analyze();
  EXPECT_FALSE(v.flow_anti);
  EXPECT_TRUE(v.not_privatizable);
  EXPECT_FALSE(v.output_deps);
  EXPECT_TRUE(v.parallel_shared());
}

TEST(PdTestTest, MarksPersistWhileIterationStateResets) {
  ShadowArrays sh(4);
  // Element 0 read then written (A_w, A_np); element 1 written (A_w).
  sh.begin_iteration();
  sh.record_read(0);
  sh.record_write(0);
  sh.record_write(1);
  sh.end_iteration();
  PdVerdict v = sh.analyze();
  EXPECT_FALSE(v.flow_anti);
  EXPECT_FALSE(v.output_deps);
  EXPECT_TRUE(v.not_privatizable);
  // Element 1's state reset: its write here is a first write again, so
  // w_A (3) passes m_A (2).  The A_np mark stays.
  sh.begin_iteration();
  sh.record_write(1);
  sh.end_iteration();
  v = sh.analyze();
  EXPECT_FALSE(v.flow_anti);
  EXPECT_TRUE(v.output_deps);
  EXPECT_TRUE(v.not_privatizable);
  // Element 0's state reset too: this read is read-first and marks A_r,
  // which meets the A_w mark kept from the first iteration.
  sh.begin_iteration();
  sh.record_read(0);
  sh.end_iteration();
  EXPECT_TRUE(sh.analyze().flow_anti);
}

TEST(PdTestTest, ReadOnlyElementsAreFree) {
  ShadowArrays sh(4);
  for (int i = 0; i < 3; ++i) {
    sh.begin_iteration();
    sh.record_read(3);  // never written by anyone
    sh.record_write(static_cast<std::size_t>(i));
    sh.end_iteration();
  }
  PdVerdict v = sh.analyze();
  EXPECT_TRUE(v.pass());
  EXPECT_TRUE(v.parallel_shared());
}

TEST(PdTestTest, WriteCountersDistinguishOutputDeps) {
  ShadowArrays sh(4);
  sh.begin_iteration();
  sh.record_write(1);
  sh.record_write(1);  // second write same iteration: not counted
  sh.end_iteration();
  EXPECT_FALSE(sh.analyze().output_deps);  // w_A = m_A = 1
  sh.begin_iteration();
  sh.record_write(1);  // different iteration: counted again
  sh.end_iteration();
  EXPECT_TRUE(sh.analyze().output_deps);  // w_A = 2, m_A = 1
}

TEST(PdTestTest, MixedPatternExactVerdict) {
  // Element 0: private temporary (w then r each iteration).
  // Element 1: disjoint writes.
  // Element 2: read-only.
  ShadowArrays sh(8);
  for (int i = 0; i < 2; ++i) {
    sh.begin_iteration();
    sh.record_write(0);
    sh.record_read(0);
    sh.record_write(static_cast<std::size_t>(3 + i));
    sh.record_read(2);
    sh.end_iteration();
  }
  PdVerdict v = sh.analyze();
  EXPECT_FALSE(v.flow_anti);
  EXPECT_TRUE(v.output_deps);          // element 0 written twice
  EXPECT_FALSE(v.not_privatizable);
  EXPECT_TRUE(v.parallel_privatized());
}

TEST(PdTestTest, CostScalesWithProcessors) {
  ShadowArrays sh(1000);
  for (int i = 0; i < 100; ++i) {
    sh.begin_iteration();
    for (std::size_t k = 0; k < 50; ++k)
      sh.record_write((static_cast<std::size_t>(i) * 53 + k) % 1000);
    sh.end_iteration();
  }
  EXPECT_GT(sh.cost(1), sh.cost(4));
  EXPECT_GT(sh.cost(4), sh.cost(16));
  // 5000 accesses marked at 2 units each; one processor merges nothing.
  EXPECT_EQ(sh.cost(1), 10000u);
}

TEST(PdTestTest, ProtocolMisuseAsserts) {
  ShadowArrays sh(4);
  EXPECT_THROW(sh.record_read(0), InternalError);  // outside iteration
  sh.begin_iteration();
  EXPECT_THROW(sh.begin_iteration(), InternalError);
  EXPECT_THROW(sh.record_write(99), InternalError);  // out of range
  sh.end_iteration();
  EXPECT_NO_THROW(sh.analyze());
}

}  // namespace
}  // namespace polaris
