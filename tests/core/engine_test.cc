#include "core/engine.h"

#include <gtest/gtest.h>

#include "algos/bfs.h"
#include "algos/sssp.h"
#include "baselines/cpu_reference.h"
#include "graph/generators.h"
#include "simt/device.h"

namespace simdx {
namespace {

EngineOptions DefaultOptions() {
  EngineOptions o;
  o.sim_worker_threads = 64;  // small graphs in these tests
  return o;
}

TEST(EngineTest, BfsOnChainMatchesOracle) {
  const Graph g = Graph::FromEdges(GenerateChain(50), false);
  BfsProgram program;
  program.source = 0;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto result = engine.Run(program);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_EQ(result.values, CpuBfsLevels(g, 0));
  EXPECT_EQ(result.stats.iterations, 50u);  // one level per iteration + final
}

TEST(EngineTest, SsspOnFigure1MatchesDijkstra) {
  const Graph g = Graph::FromEdges(PaperFigure1Graph(), false);
  SsspProgram program;
  program.source = 0;
  Engine<SsspProgram> engine(g, MakeK40(), DefaultOptions());
  const auto result = engine.Run(program);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_EQ(result.values, CpuDijkstra(g, 0));
}

TEST(EngineTest, EmptyInitialFrontierTerminatesImmediately) {
  const Graph g = Graph::FromEdges(GenerateChain(5), false);
  BfsProgram program;
  program.source = 0;
  // Isolate the frontier-empty path: point the source at an isolated vertex.
  const Graph g2 = Graph::FromEdges(GenerateChain(5), false, /*vertex_count=*/10);
  program.source = 9;  // isolated: frontier after iteration 1 is empty
  Engine<BfsProgram> engine(g2, MakeK40(), DefaultOptions());
  const auto result = engine.Run(program);
  EXPECT_TRUE(result.stats.ok());
  EXPECT_LE(result.stats.iterations, 1u);
  EXPECT_EQ(result.values[9], 0u);
  EXPECT_EQ(result.values[0], kInfinity);
}

TEST(EngineTest, OomWhenBudgetTooSmall) {
  const Graph g = Graph::FromEdges(GenerateUniformRandom(1000, 10000, 1), false);
  EngineOptions o = DefaultOptions();
  o.memory_budget_bytes = 1024;  // absurdly small
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), o);
  const auto result = engine.Run(program);
  EXPECT_TRUE(result.stats.oom);
  EXPECT_FALSE(result.stats.ok());
  EXPECT_EQ(result.stats.iterations, 0u);
  EXPECT_TRUE(result.values.empty());
}

TEST(EngineTest, BatchFilterNeedsMoreMemoryThanJit) {
  const Graph g = Graph::FromEdges(GenerateUniformRandom(1000, 20000, 1), false);
  BfsProgram program;
  EngineOptions jit = DefaultOptions();
  EngineOptions batch = DefaultOptions();
  batch.filter = FilterPolicy::kBatch;
  const auto r_jit = Engine<BfsProgram>(g, MakeK40(), jit).Run(program);
  const auto r_batch = Engine<BfsProgram>(g, MakeK40(), batch).Run(program);
  EXPECT_GT(r_batch.stats.device_bytes_needed, r_jit.stats.device_bytes_needed);
}

TEST(EngineTest, FilterPoliciesAgreeOnResults) {
  const Graph g = Graph::FromEdges(GenerateRmat(9, 8, 5), false);
  const auto oracle = CpuBfsLevels(g, 0);
  for (FilterPolicy policy :
       {FilterPolicy::kJit, FilterPolicy::kBallotOnly, FilterPolicy::kBatch}) {
    EngineOptions o = DefaultOptions();
    o.filter = policy;
    BfsProgram program;
    const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
    ASSERT_TRUE(result.stats.ok()) << static_cast<int>(policy);
    EXPECT_EQ(result.values, oracle) << static_cast<int>(policy);
  }
}

TEST(EngineTest, FusionPoliciesAgreeOnResultsAndDifferInLaunches) {
  const Graph g = Graph::FromEdges(GenerateGridRoad(40, 10, 2), false);
  const auto oracle = CpuBfsLevels(g, 0);
  uint64_t launches_none = 0;
  uint64_t launches_selective = 0;
  uint64_t launches_all = 0;
  for (FusionPolicy policy :
       {FusionPolicy::kNoFusion, FusionPolicy::kSelective, FusionPolicy::kAllFusion}) {
    EngineOptions o = DefaultOptions();
    o.fusion = policy;
    BfsProgram program;
    const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
    ASSERT_TRUE(result.stats.ok());
    EXPECT_EQ(result.values, oracle);
    switch (policy) {
      case FusionPolicy::kNoFusion:
        launches_none = result.stats.counters.kernel_launches;
        break;
      case FusionPolicy::kSelective:
        launches_selective = result.stats.counters.kernel_launches;
        break;
      case FusionPolicy::kAllFusion:
        launches_all = result.stats.counters.kernel_launches;
        break;
    }
  }
  EXPECT_GT(launches_none, 10 * launches_selective);
  EXPECT_EQ(launches_all, 1u);
  EXPECT_GE(launches_selective, 1u);
}

TEST(EngineTest, OnlineOnlyFailsOnWideGraph) {
  // A star explodes the frontier to every leaf in one iteration: bins of
  // capacity 4 with 2 workers cannot hold it.
  const Graph g = Graph::FromEdges(GenerateStar(500), false);
  EngineOptions o = DefaultOptions();
  o.filter = FilterPolicy::kOnlineOnly;
  o.sim_worker_threads = 2;
  o.overflow_threshold = 4;
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
  EXPECT_TRUE(result.stats.failed);
  EXPECT_FALSE(result.stats.ok());
}

TEST(EngineTest, JitRecoversWhereOnlineOnlyFails) {
  const Graph g = Graph::FromEdges(GenerateStar(500), false);
  EngineOptions o = DefaultOptions();
  o.filter = FilterPolicy::kJit;
  o.sim_worker_threads = 2;
  o.overflow_threshold = 4;
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_EQ(result.values, CpuBfsLevels(g, 0));
  EXPECT_NE(result.stats.filter_pattern.find('B'), std::string::npos);
}

TEST(EngineTest, AtomicModeProducesSameResultsWithAtomicCharges) {
  const Graph g = Graph::FromEdges(GenerateRmat(9, 8, 6), false);
  BfsProgram program;
  EngineOptions atomic = DefaultOptions();
  atomic.use_atomic_updates = true;
  atomic.enable_vote_early_exit = false;
  const auto r_acc = Engine<BfsProgram>(g, MakeK40(), DefaultOptions()).Run(program);
  const auto r_atomic = Engine<BfsProgram>(g, MakeK40(), atomic).Run(program);
  EXPECT_EQ(r_acc.values, r_atomic.values);
  EXPECT_EQ(r_acc.stats.counters.atomic_ops, 0u) << "ACC is atomic-free";
  EXPECT_GT(r_atomic.stats.counters.atomic_ops, 0u);
}

TEST(EngineTest, IterationLogsRecorded) {
  const Graph g = Graph::FromEdges(GenerateChain(10), false);
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), DefaultOptions()).Run(program);
  ASSERT_EQ(result.stats.iteration_logs.size(), result.stats.iterations);
  EXPECT_EQ(result.stats.iteration_logs.front().frontier_size, 1u);
  EXPECT_EQ(result.stats.filter_pattern.size(), result.stats.iterations);
  EXPECT_EQ(result.stats.direction_pattern.size(), result.stats.iterations);
}

TEST(EngineTest, TimeAndCountersArePositive) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 2), false);
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), DefaultOptions()).Run(program);
  EXPECT_GT(result.stats.time.ms, 0.0);
  EXPECT_GT(result.stats.counters.coalesced_words, 0u);
  EXPECT_GT(result.stats.total_edges_processed, 0u);
}

TEST(EngineTest, MaxIterationsGuardReportsNotConverged) {
  const Graph g = Graph::FromEdges(GenerateChain(100), false);
  EngineOptions o = DefaultOptions();
  o.max_iterations = 3;
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
  EXPECT_FALSE(result.stats.converged);
  EXPECT_EQ(result.stats.iterations, 3u);
}

// BfsProgram with per-vertex push-Apply counters. Thread-safe under the
// partitioned drains: concurrent workers apply to DISTINCT vertices, so the
// per-vertex slots never race.
struct CountingBfsProgram : BfsProgram {
  std::vector<uint32_t>* push_applies = nullptr;

  Value Apply(VertexId v, const Value& combined, const Value& old,
              Direction dir) const {
    if (dir == Direction::kPush) {
      (*push_applies)[v] += 1;
    }
    return BfsProgram::Apply(v, combined, old, dir);
  }
};
static_assert(AccProgram<CountingBfsProgram>);

// The kPerDestination contract's headline guarantee, asserted directly: with
// pre_combine_replay on, the replay issues EXACTLY ONE Apply per touched
// destination per push iteration, while the per-record drain issues one per
// record. A funnel (every spoke -> every hub) makes the difference extreme.
TEST(PreCombinedApplyCountTest, ExactlyOneApplyPerTouchedDestination) {
  const uint32_t kSources = 500;
  const uint32_t kHubs = 3;
  const Graph g =
      Graph::FromEdges(GenerateFunnel(kSources, kHubs), /*directed=*/true);

  const auto run = [&](bool pre_combine, uint32_t threads,
                       std::vector<uint32_t>& counts) {
    counts.assign(g.vertex_count(), 0);
    EngineOptions o = DefaultOptions();
    o.host_threads = threads;
    o.force_push = true;
    o.parallel_replay_min_records = 0;
    o.pre_combine_replay = pre_combine;
    CountingBfsProgram program;
    program.source = 0;
    program.push_applies = &counts;
    Engine<CountingBfsProgram> engine(g, MakeK40(), o);
    return engine.Run(program);
  };

  std::vector<uint32_t> per_record;
  const auto r_record = run(false, 3, per_record);
  ASSERT_TRUE(r_record.stats.ok());
  // Per-record drain: each hub receives one Apply per in-record.
  for (uint32_t h = 0; h < kHubs; ++h) {
    EXPECT_EQ(per_record[1 + h], kSources) << "hub " << h;
  }

  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    std::vector<uint32_t> pre_combined;
    const auto r_pre = run(true, threads, pre_combined);
    ASSERT_TRUE(r_pre.stats.ok());
    EXPECT_EQ(r_pre.stats.contract, StatsContract::kPerDestination);
    // BFS touches each vertex's value in exactly one push iteration here, so
    // one-Apply-per-touched-destination-per-iteration means exactly one
    // Apply per reached vertex (the source receives no records).
    for (VertexId v = 1; v < g.vertex_count(); ++v) {
      EXPECT_EQ(pre_combined[v], 1u) << "vertex " << v << " t=" << threads;
    }
    // And the fold changes no BFS value: min over a fold == min per record.
    EXPECT_EQ(r_pre.values, r_record.values);
  }
}

TEST(EngineTest, ForcePullMatchesOracleAndPinsDirection) {
  const Graph g = Graph::FromEdges(GenerateRmat(9, 8, 5), false);
  EngineOptions o = DefaultOptions();
  o.force_pull = true;
  BfsProgram program;
  const auto result = Engine<BfsProgram>(g, MakeK40(), o).Run(program);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_EQ(result.values, CpuBfsLevels(g, 0));
  EXPECT_EQ(result.stats.direction_pattern.find('p'), std::string::npos)
      << "every iteration must gather (pattern: "
      << result.stats.direction_pattern << ")";
}

TEST(EffectiveOccupancyTest, SaturatesAtThreshold) {
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(kOccupancySaturation), 1.0);
  EXPECT_DOUBLE_EQ(EffectiveOccupancy(1.0), 1.0);
  EXPECT_LT(EffectiveOccupancy(kOccupancySaturation / 2), 1.0);
  EXPECT_GE(EffectiveOccupancy(0.0), 0.05);
}

}  // namespace
}  // namespace simdx
