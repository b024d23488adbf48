#include "core/jit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace simdx {
namespace {

constexpr uint32_t kWorkers = 4;
constexpr uint32_t kThreshold = 4;

// One frontier build into a fresh buffer: the filter it used and the
// frontier it produced.
struct Build {
  char filter;
  std::vector<VertexId> frontier;
};

Build BuildNext(JitController& jit, VertexId vertex_count,
                const ActivePredicate& active, CostCounters& c) {
  Build b;
  b.filter = jit.BuildNextFrontierInto(vertex_count, active, c, b.frontier);
  return b;
}

TEST(JitTest, OnlineModeWhileBinsFit) {
  JitController jit(FilterPolicy::kJit, kWorkers, kThreshold);
  CostCounters c;
  jit.RecordActivation(0, 7, c);
  jit.RecordActivation(1, 3, c);
  const Build b = BuildNext(jit, 100, [](VertexId) { return false; }, c);
  EXPECT_EQ(b.filter, 'O');
  // Bin concatenation order, not sorted.
  EXPECT_EQ(b.frontier, (std::vector<VertexId>{7, 3}));
  EXPECT_FALSE(jit.failed());
}

TEST(JitTest, SwitchesToBallotOnOverflow) {
  JitController jit(FilterPolicy::kJit, /*workers=*/1, /*threshold=*/2);
  CostCounters c;
  for (VertexId v = 0; v < 10; ++v) {
    jit.RecordActivation(0, v, c);  // overflows after 2
  }
  // The ballot scan must reconstruct the true active set from metadata.
  const Build b = BuildNext(jit, 10, [](VertexId v) { return v < 10; }, c);
  EXPECT_EQ(b.filter, 'B');
  EXPECT_EQ(b.frontier.size(), 10u);
  EXPECT_TRUE(std::is_sorted(b.frontier.begin(), b.frontier.end()));
  EXPECT_FALSE(jit.failed()) << "JIT recovers from overflow, online-only fails";
}

TEST(JitTest, SwitchesBackWhenVolumeDrops) {
  JitController jit(FilterPolicy::kJit, 1, 2);
  CostCounters c;
  // Iteration 1: overflow -> ballot.
  for (VertexId v = 0; v < 5; ++v) {
    jit.RecordActivation(0, v, c);
  }
  EXPECT_EQ(BuildNext(jit, 10, [](VertexId v) { return v < 5; }, c).filter,
            'B');
  // Iteration 2: small volume again -> back to online (Figure 7's loop).
  jit.RecordActivation(0, 9, c);
  const Build b = BuildNext(jit, 10, [](VertexId) { return false; }, c);
  EXPECT_EQ(b.filter, 'O');
  EXPECT_EQ(b.frontier, std::vector<VertexId>{9});
}

TEST(JitTest, BallotOnlyAlwaysScans) {
  JitController jit(FilterPolicy::kBallotOnly, kWorkers, kThreshold);
  CostCounters c;
  jit.RecordActivation(0, 1, c);  // ignored by policy
  const Build b = BuildNext(jit, 64, [](VertexId v) { return v == 40; }, c);
  EXPECT_EQ(b.frontier, std::vector<VertexId>{40});
  EXPECT_EQ(b.filter, 'B');
}

TEST(JitTest, OnlineOnlyFailsOnOverflow) {
  JitController jit(FilterPolicy::kOnlineOnly, 1, 2);
  CostCounters c;
  for (VertexId v = 0; v < 5; ++v) {
    jit.RecordActivation(0, v, c);
  }
  const Build b = BuildNext(jit, 10, [](VertexId) { return true; }, c);
  EXPECT_TRUE(jit.failed())
      << "online-only drops activations on overflow: the run is invalid";
  EXPECT_EQ(b.filter, 'O');
  // A new run starts clean.
  jit.Reset();
  EXPECT_FALSE(jit.failed());
}

TEST(JitTest, OnlineOnlyFineWithinCapacity) {
  JitController jit(FilterPolicy::kOnlineOnly, 8, 64);
  CostCounters c;
  for (VertexId v = 0; v < 50; ++v) {
    jit.RecordActivation(v % 8, v, c);
  }
  const Build b = BuildNext(jit, 100, [](VertexId) { return true; }, c);
  EXPECT_FALSE(jit.failed());
  EXPECT_EQ(b.frontier.size(), 50u);
}

TEST(JitTest, BatchPolicyNeverOverflows) {
  JitController jit(FilterPolicy::kBatch, 2, 4);
  CostCounters c;
  for (VertexId v = 0; v < 1000; ++v) {
    jit.RecordActivation(v % 2, v, c);
  }
  const Build b = BuildNext(jit, 1000, [](VertexId) { return true; }, c);
  EXPECT_FALSE(jit.failed());
  EXPECT_EQ(b.frontier.size(), 1000u);
  EXPECT_EQ(b.filter, 'A');
}

TEST(JitTest, EachBuildReportsItsOwnFilter) {
  // The controller keeps no history: an overflow switches one build to the
  // ballot scan, and the next build with fitting bins is online again.
  JitController jit(FilterPolicy::kJit, 1, 1);
  CostCounters c;
  std::string pattern;
  std::vector<VertexId> out;
  pattern += jit.BuildNextFrontierInto(8, [](VertexId) { return false; }, c,
                                       out);  // O (empty)
  jit.RecordActivation(0, 0, c);
  jit.RecordActivation(0, 1, c);  // overflow
  pattern += jit.BuildNextFrontierInto(8, [](VertexId) { return true; }, c,
                                       out);  // B
  EXPECT_EQ(out.size(), 8u);
  pattern += jit.BuildNextFrontierInto(8, [](VertexId) { return false; }, c,
                                       out);  // O again
  EXPECT_TRUE(out.empty()) << "the buffer is cleared before each build";
  EXPECT_EQ(pattern, "OBO");
}

TEST(JitTest, ShadowRecordingCostCappedByThreshold) {
  JitController jit(FilterPolicy::kJit, 1, 8);
  CostCounters c;
  for (VertexId v = 0; v < 100000; ++v) {
    jit.RecordActivation(0, v, c);
  }
  // Only the first 8 writes hit the bin; overflowed records are free — the
  // "not on the critical path" property of Figure 9(b).
  EXPECT_EQ(c.scattered_words, 8u);
}

}  // namespace
}  // namespace simdx
