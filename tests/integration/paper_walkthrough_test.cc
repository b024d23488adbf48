// Replays the paper's worked examples end to end: the Figure 1 SSSP
// narrative on the 9-vertex graph, the Figure 6 filter mechanics, and the
// Section 5 grid-sizing example — the places where the paper commits to
// concrete numbers a reproduction can be checked against.
#include <gtest/gtest.h>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "core/engine.h"
#include "core/filters.h"
#include "graph/generators.h"
#include "simt/barrier.h"
#include "simt/device.h"

namespace simdx {
namespace {

EngineOptions WalkthroughOptions() {
  EngineOptions o;
  o.sim_worker_threads = 2;  // the two threads of Figure 6
  o.overflow_threshold = 64;
  return o;
}

// Figure 1: SSSP from a on {a..i}. The run starts with a single active
// vertex, relaxes outward, improves b across non-adjacent iterations, and
// converges to the final distance array.
TEST(PaperWalkthrough, Figure1SsspNarrative) {
  const Graph g = Graph::FromEdges(PaperFigure1Graph(), false);
  SsspProgram program;
  program.source = 0;
  EngineOptions o = WalkthroughOptions();
  o.keep_iteration_log = true;  // read below
  Engine<SsspProgram> engine(g, MakeK40(), o);
  const auto result = engine.Run(program);
  ASSERT_TRUE(result.stats.ok());

  const std::vector<uint32_t> expected = {0, 4, 5, 1, 3, 4, 6, 7, 9};
  EXPECT_EQ(result.values, expected);

  // Iteration 1 processes only the source.
  ASSERT_FALSE(result.stats.iteration_logs.empty());
  EXPECT_EQ(result.stats.iteration_logs[0].frontier_size, 1u);
  // The walkthrough needs ~5 iterations on this graph.
  EXPECT_GE(result.stats.iterations, 4u);
  EXPECT_LE(result.stats.iterations, 7u);
  // A 9-vertex graph never overflows a 64-entry bin: online filter only.
  EXPECT_EQ(result.stats.filter_pattern.find('B'), std::string::npos);
}

// Figure 6(b): the ballot filter walking metadata with 2 cooperating
// threads produces the sorted unique active list {b, f, g, h, i} (ids
// 1, 5, 6, 7, 8) when exactly those vertices' metadata changed.
TEST(PaperWalkthrough, Figure6BallotFilter) {
  const std::vector<bool> updated = {false, true, false, false, false,
                                     true,  true, true,  true};
  CostCounters c;
  const auto frontier = BallotFilterScan(
      9, [&](VertexId v) { return static_cast<bool>(updated[v]); }, c);
  EXPECT_EQ(frontier, (std::vector<VertexId>{1, 5, 6, 7, 8}));
}

// Figure 6(c): the online filter records {e, c} (ids 4, 2) as the next
// active list while processing the updates of iteration 2.
TEST(PaperWalkthrough, Figure6OnlineFilter) {
  ThreadBins bins(2, 64);
  // Thread 0 processes vertex b's neighbors and finds c updated; thread 1
  // processes d's and finds e updated.
  bins.Record(1, 4);
  bins.Record(0, 2);
  EXPECT_EQ(bins.Concatenate(), (std::vector<VertexId>{2, 4}));
  EXPECT_FALSE(bins.overflowed());
}

// Section 5's worked example: 110 registers, 128 threads/CTA on a 15-SMX
// K40 gives a 60-CTA grid — and that grid is exactly barrier-safe.
TEST(PaperWalkthrough, Section5GridSizing) {
  const KernelResources kernel{110, 128};
  const uint32_t grid = DeadlockFreeGridSize(MakeK40(), kernel);
  EXPECT_EQ(grid, 60u);
  EXPECT_FALSE(SimulateGlobalBarrier(grid, grid, 10).deadlocked);
  EXPECT_TRUE(SimulateGlobalBarrier(grid + 1, grid, 10).deadlocked);
}

// Figure 4's SSSP program really is "tens of lines": the ACC program text is
// small and the engine supplies the rest. (Guards the ease-of-programming
// claim structurally: the program object is a handful of plain functions.)
TEST(PaperWalkthrough, AccProgramIsSmall) {
  static_assert(sizeof(SsspProgram) <= 128,
                "ACC programs carry configuration plus small scheduling "
                "bookkeeping (delta buckets), never engine state");
  static_assert(AccProgram<SsspProgram>);
  SUCCEED();
}

}  // namespace
}  // namespace simdx
