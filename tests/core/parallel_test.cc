#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/push_buffer.h"

#include "algos/algos.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace simdx {
namespace {

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 7, 4, [&](const ParallelChunk& c) {
    for (size_t i = c.begin; i < c.end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnGrain) {
  // Same grain, different thread counts: identical chunk decomposition.
  for (uint32_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    std::mutex m;
    std::vector<std::pair<size_t, size_t>> chunks;
    pool.ParallelFor(3, 103, 10, threads, [&](const ParallelChunk& c) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(c.begin, c.end);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), 10u) << threads;
    for (size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].first, 3 + i * 10);
      EXPECT_EQ(chunks[i].second, std::min<size_t>(103, 3 + (i + 1) * 10));
    }
  }
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 10, 4, [&](const ParallelChunk&) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 1, 1024, 4, [&](const ParallelChunk& c) {
    total += static_cast<int>(c.end - c.begin);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolTest, ThreadIndicesWithinRequestedCap) {
  ThreadPool pool(8);
  std::atomic<uint32_t> max_index{0};
  pool.ParallelFor(0, 10000, 16, 3, [&](const ParallelChunk& c) {
    uint32_t seen = max_index.load();
    while (c.thread_index > seen &&
           !max_index.compare_exchange_weak(seen, c.thread_index)) {
    }
  });
  EXPECT_LT(max_index.load(), 3u);
}

TEST(ThreadPoolTest, NestedParallelForFallsBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, 4, [&](const ParallelChunk&) {
    // Nested call must run inline (and not deadlock).
    pool.ParallelFor(0, 10, 3, 4,
                     [&](const ParallelChunk& c) {
                       total += static_cast<int>(c.end - c.begin);
                     });
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, OrderedReduceMatchesSerialFold) {
  ThreadPool pool(4);
  // Floating-point fold where grouping matters: the ordered reduction must
  // match the chunk-order serial fold exactly, every time.
  std::vector<double> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  const size_t grain = 97;
  auto run = [&](uint32_t threads) {
    return OrderedReduce<double>(
        pool, 0, values.size(), grain, threads, 0.0,
        [&](const ParallelChunk& c, double& acc) {
          for (size_t i = c.begin; i < c.end; ++i) {
            acc += values[i];
          }
        },
        [](double& total, const double& part) { total += part; });
  };
  const double serial = run(1);
  for (int rep = 0; rep < 5; ++rep) {
    const double parallel = run(4);
    EXPECT_EQ(serial, parallel);  // bitwise, not near
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int job = 0; job < 200; ++job) {
    std::atomic<long> sum{0};
    pool.ParallelFor(0, 1000, 50, 4, [&](const ParallelChunk& c) {
      long local = 0;
      for (size_t i = c.begin; i < c.end; ++i) {
        local += static_cast<long>(i);
      }
      sum += local;
    });
    EXPECT_EQ(sum.load(), 999L * 1000 / 2);
  }
}

// --- Engine determinism: the contract the whole runtime is built around.
// host_threads must be a pure wall-clock knob: every simulated statistic and
// every output value byte-identical to the single-threaded run. ---

// Simulated statistics + values only — everything the bench StatsFingerprint
// freezes. Cross-CONFIG equality gates (e.g. collect-fold on vs off) use
// this form: the host-side record-stream telemetry legitimately differs
// there (shrinking it is the point).
template <typename Value>
void ExpectIdenticalSimStats(const RunResult<Value>& a,
                             const RunResult<Value>& b) {
  EXPECT_EQ(a.values, b.values);
  // Identical runs must have been accounted under the same contract — a
  // per-record fingerprint never compares equal to a per-destination one.
  EXPECT_EQ(a.stats.contract, b.stats.contract);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.oom, b.stats.oom);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.converged, b.stats.converged);
  EXPECT_EQ(a.stats.total_active, b.stats.total_active);
  EXPECT_EQ(a.stats.total_edges_processed, b.stats.total_edges_processed);
  EXPECT_EQ(a.stats.counters.coalesced_words, b.stats.counters.coalesced_words);
  EXPECT_EQ(a.stats.counters.scattered_words, b.stats.counters.scattered_words);
  EXPECT_EQ(a.stats.counters.atomic_ops, b.stats.counters.atomic_ops);
  EXPECT_EQ(a.stats.counters.atomic_conflicts, b.stats.counters.atomic_conflicts);
  EXPECT_EQ(a.stats.counters.alu_ops, b.stats.counters.alu_ops);
  EXPECT_EQ(a.stats.counters.kernel_launches, b.stats.counters.kernel_launches);
  EXPECT_EQ(a.stats.counters.barrier_crossings,
            b.stats.counters.barrier_crossings);
  // Bitwise: these are computed from the counters, so any divergence means a
  // counter raced.
  EXPECT_EQ(a.stats.time.ms, b.stats.time.ms);
  EXPECT_EQ(a.stats.time.cycles, b.stats.time.cycles);
  EXPECT_EQ(a.stats.serial_ms, b.stats.serial_ms);
  EXPECT_EQ(a.stats.filter_pattern, b.stats.filter_pattern);
  EXPECT_EQ(a.stats.direction_pattern, b.stats.direction_pattern);
  EXPECT_EQ(a.stats.device_bytes_needed, b.stats.device_bytes_needed);
  ASSERT_EQ(a.stats.iteration_logs.size(), b.stats.iteration_logs.size());
  for (size_t i = 0; i < a.stats.iteration_logs.size(); ++i) {
    EXPECT_EQ(a.stats.iteration_logs[i].frontier_size,
              b.stats.iteration_logs[i].frontier_size);
    EXPECT_EQ(a.stats.iteration_logs[i].edges_processed,
              b.stats.iteration_logs[i].edges_processed);
    EXPECT_EQ(a.stats.iteration_logs[i].filter, b.stats.iteration_logs[i].filter);
    EXPECT_EQ(a.stats.iteration_logs[i].direction,
              b.stats.iteration_logs[i].direction);
    EXPECT_EQ(a.stats.iteration_logs[i].ms, b.stats.iteration_logs[i].ms);
  }
}

// Same-config comparisons (thread sweeps, toggle-changes-nothing tests)
// additionally pin the host-side record-stream telemetry: candidates are a
// simulated stat, and a folding collect runs a thread-count-stable chunk
// plan, so all three fields are deterministic for any host_threads.
template <typename Value>
void ExpectIdenticalRuns(const RunResult<Value>& a, const RunResult<Value>& b) {
  ExpectIdenticalSimStats(a, b);
  EXPECT_EQ(a.stats.push_record_candidates, b.stats.push_record_candidates);
  EXPECT_EQ(a.stats.push_records_buffered, b.stats.push_records_buffered);
  EXPECT_EQ(a.stats.collect_fold_iterations, b.stats.collect_fold_iterations);
}

EngineOptions OptionsWithThreads(uint32_t host_threads) {
  EngineOptions o;
  o.host_threads = host_threads;
  return o;
}

TEST(EngineHostThreadsDeterminismTest, PageRankOnRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(12, 8, 7), /*directed=*/true);
  const auto serial = RunPageRank(g, MakeK40(), OptionsWithThreads(1));
  ASSERT_TRUE(serial.stats.ok());
  // Pull-heavy workload: the frontier stays wide for most iterations.
  ASSERT_NE(serial.stats.direction_pattern.find('P'), std::string::npos);
  for (int rep = 0; rep < 3; ++rep) {
    const auto parallel = RunPageRank(g, MakeK40(), OptionsWithThreads(8));
    ExpectIdenticalRuns(serial, parallel);
  }
}

TEST(EngineHostThreadsDeterminismTest, SsspOnRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(12, 8, 11), /*directed=*/false);
  VertexId source = 0;
  uint32_t best = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > best) {
      best = g.OutDegree(v);
      source = v;
    }
  }
  const auto serial = RunSssp(g, source, MakeK40(), OptionsWithThreads(1));
  ASSERT_TRUE(serial.stats.ok());
  for (int rep = 0; rep < 3; ++rep) {
    const auto parallel = RunSssp(g, source, MakeK40(), OptionsWithThreads(8));
    ExpectIdenticalRuns(serial, parallel);
  }
}

TEST(EngineHostThreadsDeterminismTest, BfsBallotHeavy) {
  // Undirected RMAT floods in a couple of iterations: exercises the parallel
  // ballot scan + vote early-exit pull path.
  const Graph g = Graph::FromEdges(GenerateRmat(12, 16, 3), /*directed=*/false);
  const auto serial = RunBfs(g, 0, MakeK40(), OptionsWithThreads(1));
  ASSERT_TRUE(serial.stats.ok());
  const auto parallel = RunBfs(g, 0, MakeK40(), OptionsWithThreads(8));
  ExpectIdenticalRuns(serial, parallel);
}

TEST(EngineHostThreadsDeterminismTest, AutoThreadsMatchesSerial) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 5), /*directed=*/true);
  const auto serial = RunPageRank(g, MakeK40(), OptionsWithThreads(1));
  const auto auto_threads = RunPageRank(g, MakeK40(), OptionsWithThreads(0));
  ExpectIdenticalRuns(serial, auto_threads);
}

// --- Push-phase determinism: force_push routes EVERY iteration through the
// collect-then-replay scatter (per-chunk PushBuffers + ordered drain), so
// these sweeps exercise exactly the code the pull-heavy tests above miss.
// Skewed R-MAT graphs make the Thread/Warp/CTA lists all non-empty, putting
// chunks of every kernel class into the replay order. ---

EngineOptions PushOptions(uint32_t host_threads) {
  EngineOptions o;
  o.host_threads = host_threads;
  o.force_push = true;
  return o;
}

template <typename RunFn>
void SweepPushThreads(const RunFn& run) {
  const auto serial = run(PushOptions(1));
  ASSERT_TRUE(serial.stats.ok());
  for (uint32_t threads : {2u, 3u, 8u}) {
    const auto parallel = run(PushOptions(threads));
    ExpectIdenticalRuns(serial, parallel);
    // Counters also compare wholesale (CostCounters::operator==) so a new
    // counter field added later cannot silently escape the gate.
    EXPECT_TRUE(serial.stats.counters == parallel.stats.counters) << threads;
  }
}

TEST(EnginePushDeterminismTest, BfsAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 13), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
}

TEST(EnginePushDeterminismTest, SsspAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 17), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); });
}

TEST(EnginePushDeterminismTest, WccAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 19), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); });
}

TEST(EnginePushDeterminismTest, KCoreAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 23), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunKCore(g, 8, MakeK40(), o); });
}

TEST(EnginePushDeterminismTest, PageRankResidualPushConservesMass) {
  // All-push PageRank: every vertex is a source AND a destination of the
  // same phase, so this is the hardest case for the snapshot semantics —
  // residual arriving during replay must survive ConsumeActivity.
  const Graph g = Graph::FromEdges(GenerateGridRoad(30, 30, 2), /*directed=*/false);
  const auto run = [&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
  };
  SweepPushThreads(run);
  // Undirected grid without isolated vertices: no dangling mass, ranks sum
  // to 1 at the fixpoint — catches any activity lost to consume/apply
  // reordering even when the run is internally consistent.
  const auto result = run(PushOptions(3));
  double sum = 0.0;
  for (const auto& value : result.values) {
    sum += value.rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(EnginePushDeterminismTest, AtomicTouchStampsAreDeterministic) {
  // use_atomic_updates adds the touch-stamp conflict accounting to the
  // replay; the conflict counter must not depend on the thread count.
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 29), /*directed=*/false);
  SweepPushThreads([&](EngineOptions o) {
    o.use_atomic_updates = true;
    o.enable_vote_early_exit = false;
    return RunBfs(g, 0, MakeK40(), o);
  });
}

TEST(EnginePushDeterminismTest, UnclassifiedFrontierPathMatches) {
  // classify_worklists=false pushes the raw frontier through the same
  // buffers as a single Thread-class view.
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 31), /*directed=*/false);
  SweepPushThreads([&](EngineOptions o) {
    o.classify_worklists = false;
    return RunSssp(g, 0, MakeK40(), o);
  });
}

// --- Partitioned push replay (owner-computes drain) ---

// The shared funnel shape (graph/generators.h GenerateFunnel): root ->
// `sources` spokes, every spoke -> each of `hubs` hub vertices. One push
// iteration converges sources*hubs records on `hubs` destinations — the
// worst case for destination partitioning (nearly all ranges empty, massive
// per-destination record chains whose apply order must stay serial).
Graph MakeFunnelGraph(uint32_t sources, uint32_t hubs, bool park_weights) {
  return Graph::FromEdges(GenerateFunnel(sources, hubs, park_weights),
                          /*directed=*/true);
}

EngineOptions PartitionedPushOptions(uint32_t host_threads) {
  EngineOptions o;
  o.host_threads = host_threads;
  o.force_push = true;
  // Engage the partitioned drain even for tiny iterations; the tests below
  // are exactly about its boundary behaviour.
  o.parallel_replay_min_records = 0;
  return o;
}

template <typename RunFn>
void SweepPartitionedThreads(const RunFn& run) {
  const auto serial = run(PartitionedPushOptions(1));
  ASSERT_TRUE(serial.stats.ok());
  for (uint32_t threads : {2u, 3u, 8u}) {
    const auto parallel = run(PartitionedPushOptions(threads));
    ExpectIdenticalRuns(serial, parallel);
    EXPECT_TRUE(serial.stats.counters == parallel.stats.counters) << threads;
  }
}

TEST(PartitionedReplayTest, HighContentionBfsDeterministic) {
  // Thousands of records, three destinations: almost every range a worker
  // owns is empty, and the owned ones carry very long apply chains.
  const Graph g = MakeFunnelGraph(2000, 3, /*park_weights=*/false);
  SweepPartitionedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
}

TEST(PartitionedReplayTest, HighContentionSsspParksDeterministically) {
  // Spoke->hub weights straddle the delta bucket, so Apply parks from
  // concurrent range workers; the deferred-effect merge must reproduce the
  // serial pending-list order (RefillFrontier drains it in order, so any
  // reordering changes the released frontier and trips the gate).
  const Graph g = MakeFunnelGraph(1500, 3, /*park_weights=*/true);
  SweepPartitionedThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); });
}

TEST(PartitionedReplayTest, HighContentionPageRankConsumeInterleaves) {
  // All-push PageRank on the funnel: hubs are sources AND heavily-contended
  // destinations of the same phase, so their ConsumeActivity must land at
  // its serial span position between owned applies (FP addition does not
  // commute — any reordering shows up bit-for-bit).
  const Graph g = MakeFunnelGraph(800, 4, /*park_weights=*/false);
  SweepPartitionedThreads([&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
  });
}

TEST(PartitionedReplayTest, KCorePartitionedPushDeterministic) {
  // k-Core's push frontiers are tiny (< n/50 vertices), so with the default
  // min-records threshold its partitioned drain never engages in the other
  // sweeps; min_records=0 forces it. Also guards the KCoreValue byte
  // representation: the gates hash raw value bytes, so the value type must
  // stay padding-free (see kcore.h).
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 43), /*directed=*/false);
  SweepPartitionedThreads(
      [&](const EngineOptions& o) { return RunKCore(g, 8, MakeK40(), o); });
}

TEST(PartitionedReplayTest, HighContentionAtomicConflictsDeterministic) {
  const Graph g = MakeFunnelGraph(1200, 2, /*park_weights=*/false);
  SweepPartitionedThreads([&](EngineOptions o) {
    o.use_atomic_updates = true;
    o.enable_vote_early_exit = false;
    return RunBfs(g, 0, MakeK40(), o);
  });
}

TEST(PartitionedReplayTest, MoreRangesThanTouchedDestinations) {
  // A 5-vertex chain at 8 threads: P = min(8, 5) ranges, at most one
  // destination touched per iteration — single-dst ranges and empty ranges
  // in the same drain.
  EdgeList e;
  for (VertexId v = 0; v < 4; ++v) {
    e.Add(v, v + 1, 1);
  }
  const Graph g = Graph::FromEdges(e, /*directed=*/true);
  SweepPartitionedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
  SweepPartitionedThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); });
}

// Drains every iteration as one inline range even on a multi-thread engine.
EngineOptions OneRange(EngineOptions o) {
  o.parallel_replay_min_records = SIZE_MAX;
  return o;
}

TEST(PartitionedReplayTest, OneRangeDrainOnManyThreadsMatchesSerial) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 37), /*directed=*/false);
  const auto run = [&](EngineOptions o) { return RunWcc(g, MakeK40(), o); };
  ExpectIdenticalRuns(run(PartitionedPushOptions(1)),
                      run(OneRange(PartitionedPushOptions(8))));
}

TEST(PartitionedReplayTest, ProfileShowsPartitionedDrainOnRangeWorkers) {
  const Graph g = MakeFunnelGraph(1000, 3, /*park_weights=*/false);
  EngineOptions o = PartitionedPushOptions(4);
  o.profile_push_replay = true;
  BfsProgram program;
  program.source = 0;
  Engine<BfsProgram> engine(g, MakeK40(), o);
  const auto result = engine.Run(program);
  ASSERT_TRUE(result.stats.ok());
  const PushReplayProfile& prof = engine.push_profile();
  EXPECT_GT(prof.ranges, 1u);
  EXPECT_GT(prof.partitioned_replays, 0u);
  ASSERT_EQ(prof.range_ms.size(), prof.ranges);
  EXPECT_EQ(prof.iterations.size(),
            prof.partitioned_replays + prof.serial_replays);
  for (const PushReplayIterationSplit& it : prof.iterations) {
    EXPECT_GE(it.collect_ms, 0.0);
    EXPECT_GE(it.replay_ms, 0.0);
  }
}

// --- Pre-combined replay (associative fold drain, kPerDestination) ---
//
// For kAssociativeOnly programs with pre_combine_replay set, the drain folds
// each destination's records with Combine and issues one Apply per touched
// destination. The contract: values, stats and touch sets bit-identical
// across host_threads (including 1, where one inline range drains
// everything) — not to the per-record drain, which stays byte-for-byte
// untouched.

EngineOptions PreCombineOptions(uint32_t host_threads) {
  EngineOptions o = PartitionedPushOptions(host_threads);
  o.pre_combine_replay = true;
  return o;
}

template <typename RunFn>
void SweepPreCombinedThreads(const RunFn& run) {
  const auto serial = run(PreCombineOptions(1));
  ASSERT_TRUE(serial.stats.ok());
  for (uint32_t threads : {2u, 3u, 8u}) {
    const auto parallel = run(PreCombineOptions(threads));
    ExpectIdenticalRuns(serial, parallel);
    EXPECT_TRUE(serial.stats.counters == parallel.stats.counters) << threads;
  }
}

TEST(PreCombinedReplayTest, AllRecordsOneDestinationFunnel) {
  // hubs=1: every record of the big iteration funnels into ONE destination —
  // a single fold chain spanning many collect chunks, drained by whichever
  // worker owns that vertex while all others fold nothing.
  const Graph g = MakeFunnelGraph(2000, 1, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
}

TEST(PreCombinedReplayTest, HighContentionBfsDeterministic) {
  const Graph g = MakeFunnelGraph(2000, 3, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
}

TEST(PreCombinedReplayTest, WccOnSkewedRmatDeterministic) {
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 47), /*directed=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); });
}

TEST(PreCombinedReplayTest, SpmvForcedPushDeterministicAndMatchesPull) {
  // SpMV's replace-style Apply needs the full fold: the pre-combined forced
  // push must be thread-count deterministic AND agree with the natural pull
  // computation of y = A x (up to record-order reassociation of the sum).
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 59), /*directed=*/false);
  std::vector<double> x(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    x[v] = 1.0 / (1.0 + v);
  }
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunSpmv(g, x, MakeK40(), o); });
  EngineOptions pull;
  pull.host_threads = 1;
  const auto expected = RunSpmv(g, x, MakeK40(), pull);
  const auto pushed = RunSpmv(g, x, MakeK40(), PreCombineOptions(3));
  ASSERT_EQ(pushed.values.size(), expected.values.size());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_NEAR(pushed.values[v].y, expected.values[v].y, 1e-9) << v;
  }
}

TEST(PreCombinedReplayTest, PageRankFoldAndConsumeDeterministic) {
  // FP residual sums make every fold grouping bit-visible: the funnel's hubs
  // are sources AND heavily-contended destinations, so this pins the
  // fold-apply-consume per-vertex order across thread counts.
  const Graph g = MakeFunnelGraph(800, 4, /*park_weights=*/false);
  SweepPreCombinedThreads([&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
  });
}

TEST(PreCombinedReplayTest, PageRankResidualPushConservesMass) {
  // Same invariant as the per-record drain's mass test: apply-then-consume
  // hands every same-phase arrival to the consume, so no activity is lost.
  const Graph g =
      Graph::FromEdges(GenerateGridRoad(30, 30, 2), /*directed=*/false);
  const auto run = [&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
  };
  SweepPreCombinedThreads(run);
  const auto result = run(PreCombineOptions(3));
  double sum = 0.0;
  for (const auto& value : result.values) {
    sum += value.rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PreCombinedReplayTest, SingleRecordDestinationsOnChain) {
  // A chain gives every destination exactly one record: the fold pass never
  // calls Combine (first touch only), so pre-combined values must equal the
  // per-record drain's exactly for an integer program.
  EdgeList e;
  for (VertexId v = 0; v < 199; ++v) {
    e.Add(v, v + 1, 1);
  }
  const Graph g = Graph::FromEdges(e, /*directed=*/true);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
  const auto per_record = RunBfs(g, 0, MakeK40(), PartitionedPushOptions(3));
  const auto pre_combined = RunBfs(g, 0, MakeK40(), PreCombineOptions(3));
  EXPECT_EQ(per_record.values, pre_combined.values);
}

TEST(PreCombinedReplayTest, MoreRangesThanTouchedDestinations) {
  // 5-vertex chain at 8 threads: P = min(8, 5) ranges, at most one touched
  // destination per iteration — single-entry touched lists next to empty
  // ones, and empty range buckets in every drain.
  EdgeList e;
  for (VertexId v = 0; v < 4; ++v) {
    e.Add(v, v + 1, 1);
  }
  const Graph g = Graph::FromEdges(e, /*directed=*/true);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); });
}

TEST(PreCombinedReplayTest, EmptyPushIterationsViaRefill) {
  // SSSP is order-sensitive, so pre_combine_replay must be IGNORED: the
  // whole run (refills, parking, stats) stays on the per-record drain and
  // under the per-record contract, byte-identical to the flag-off run.
  const Graph g = MakeFunnelGraph(1500, 3, /*park_weights=*/true);
  const auto with_flag = RunSssp(g, 0, MakeK40(), PreCombineOptions(3));
  const auto without = RunSssp(g, 0, MakeK40(), PartitionedPushOptions(3));
  ExpectIdenticalRuns(without, with_flag);
  EXPECT_EQ(with_flag.stats.contract, StatsContract::kPerRecord);
}

TEST(PreCombinedReplayTest, AtomicChargesCollapseToPerDestination) {
  // Under atomics + pre-combining, each touched destination charges exactly
  // one atomic per iteration, so same-destination conflicts vanish — the
  // ACC pre-aggregation argument of Figure 5, now visible in the contract.
  const Graph g = MakeFunnelGraph(1200, 2, /*park_weights=*/false);
  const auto run = [&](EngineOptions o) {
    o.use_atomic_updates = true;
    o.enable_vote_early_exit = false;
    return RunBfs(g, 0, MakeK40(), o);
  };
  SweepPreCombinedThreads(run);
  const auto pre = run(PreCombineOptions(3));
  const auto per_record = run(PartitionedPushOptions(3));
  EXPECT_EQ(pre.stats.counters.atomic_conflicts, 0u);
  EXPECT_GT(per_record.stats.counters.atomic_conflicts, 0u);
  EXPECT_LT(pre.stats.counters.atomic_ops, per_record.stats.counters.atomic_ops);
}

TEST(PreCombinedReplayTest, PerRecordStatsUntouchedWhenFlagOff) {
  // The kPerRecord guarantee survives this PR byte-for-byte: an explicit
  // pre_combine_replay=false run is indistinguishable from a default-options
  // run at every thread count, for a capable and an order-sensitive program.
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 53), /*directed=*/false);
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    EngineOptions defaults = PushOptions(threads);
    EngineOptions off = PushOptions(threads);
    off.pre_combine_replay = false;
    const auto d_bfs = RunBfs(g, 0, MakeK40(), defaults);
    const auto o_bfs = RunBfs(g, 0, MakeK40(), off);
    ExpectIdenticalRuns(d_bfs, o_bfs);
    EXPECT_EQ(o_bfs.stats.contract, StatsContract::kPerRecord);
    ExpectIdenticalRuns(RunSssp(g, 0, MakeK40(), defaults),
                        RunSssp(g, 0, MakeK40(), off));
  }
}

TEST(PreCombinedReplayTest, ProfileReportsFoldRatio) {
  const Graph g = MakeFunnelGraph(1000, 3, /*park_weights=*/false);
  EngineOptions o = PreCombineOptions(4);
  o.profile_push_replay = true;
  BfsProgram program;
  program.source = 0;
  Engine<BfsProgram> engine(g, MakeK40(), o);
  const auto result = engine.Run(program);
  ASSERT_TRUE(result.stats.ok());
  const PushReplayProfile& prof = engine.push_profile();
  EXPECT_GT(prof.precombined_replays, 0u);
  EXPECT_GT(prof.partitioned_replays, 0u);
  ASSERT_GT(prof.fold_applies, 0u);
  // Run-wide the fold must have removed work (more records than applies)...
  EXPECT_GT(prof.fold_records, prof.fold_applies);
  // ...and the funnel iteration (1000 spokes -> 3 hubs) must show an extreme
  // per-iteration fold ratio.
  uint64_t best_ratio = 0;
  for (const PushReplayIterationSplit& it : prof.iterations) {
    EXPECT_TRUE(it.pre_combined);
    EXPECT_LE(it.applies, it.records);
    if (it.applies > 0) {
      best_ratio = std::max(best_ratio, it.records / it.applies);
    }
  }
  EXPECT_GT(best_ratio, 100u);
}

// --- Collect-side pre-combining (fold at the source, kPerDestination) ---
//
// With pre_combine_collect on top of pre_combine_replay, chunk workers fold
// same-chunk same-destination candidates before buffering. The contract:
// every SIMULATED stat and value is identical to the drain-side-fold-only
// run of the same drain variant at any host_threads, while the buffered
// record count — host telemetry — strictly shrinks whenever a chunk
// revisits destinations.

EngineOptions CollectFoldOptions(uint32_t host_threads) {
  EngineOptions o = PreCombineOptions(host_threads);
  o.pre_combine_collect = true;
  o.pre_combine_collect_min_fold = 0.0;  // force the fold on every iteration
  return o;
}

// Sweeps host_threads {1,2,3,8} × {partitioned, serial} drains: every cell
// must match the 1-thread collect-fold reference bit-for-bit (including the
// buffered-record telemetry — the folding collect uses a thread-stable
// chunk plan) AND match the drain-side-fold-only run of the same cell on
// every simulated stat and value.
template <typename RunFn>
void SweepCollectFoldThreads(const RunFn& run) {
  const auto reference = run(CollectFoldOptions(1));
  ASSERT_TRUE(reference.stats.ok());
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    for (bool partitioned : {true, false}) {
      const auto ranges = [&](EngineOptions o) {
        return partitioned ? o : OneRange(o);
      };
      const EngineOptions fold_on = ranges(CollectFoldOptions(threads));
      const EngineOptions fold_off = ranges(PreCombineOptions(threads));
      const auto folded = run(fold_on);
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " partitioned=" << partitioned);
      ExpectIdenticalRuns(reference, folded);
      ExpectIdenticalSimStats(run(fold_off), folded);
      EXPECT_EQ(folded.stats.contract, StatsContract::kPerDestination);
    }
  }
}

TEST(CollectFoldTest, FunnelBfsFoldsAtTheSourceAndMatchesDrainOnlyFold) {
  // 2000 spokes -> 3 hubs: the funnel iteration's 6000 candidates share 3
  // destinations, so each collect chunk emits at most 3 records.
  const Graph g = MakeFunnelGraph(2000, 3, /*park_weights=*/false);
  SweepCollectFoldThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
  const auto folded = RunBfs(g, 0, MakeK40(), CollectFoldOptions(3));
  const auto drain_only = RunBfs(g, 0, MakeK40(), PreCombineOptions(3));
  EXPECT_LT(folded.stats.push_records_buffered,
            folded.stats.push_record_candidates);
  EXPECT_GT(folded.stats.collect_fold_iterations, 0u);
  EXPECT_EQ(drain_only.stats.push_records_buffered,
            drain_only.stats.push_record_candidates);
  EXPECT_EQ(drain_only.stats.collect_fold_iterations, 0u);
}

TEST(CollectFoldTest, HubHeavyWccSweep) {
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 47), /*directed=*/false);
  SweepCollectFoldThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); });
}

TEST(CollectFoldTest, SameDestinationAcrossChunkBoundaryEmitsOneRecordEach) {
  // 600 spokes -> ONE hub. The spoke frontier is Thread-class (min grain
  // 256), so the stable plan splits it into 3 chunks and the hub's 600
  // candidates must emit exactly one record PER CHUNK — the fold never
  // crosses a chunk boundary (that is the drain-side fold's job).
  const uint32_t kSpokes = 600;
  const ChunkPlan plan = PlanChunksStable(kSpokes, 256);
  ASSERT_EQ(plan.chunks, 3u);
  const Graph g = MakeFunnelGraph(kSpokes, 1, /*park_weights=*/false);
  const auto folded = RunBfs(g, 0, MakeK40(), CollectFoldOptions(3));
  ASSERT_TRUE(folded.stats.ok());
  // Push iterations: root->600 spokes (600 distinct dsts, 600 records),
  // spokes->hub (600 candidates, one record per chunk), hub->tail (1).
  EXPECT_EQ(folded.stats.push_record_candidates, 600u + 600u + 1u);
  EXPECT_EQ(folded.stats.push_records_buffered, 600u + plan.chunks + 1u);
  SweepCollectFoldThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
}

TEST(CollectFoldTest, PageRankFloatingPointFoldIsThreadCountStable) {
  // FP residual sums make the fold's chunk grouping bit-visible: this is the
  // test that the stable chunk plan actually pins it. Values only need to
  // match the drain-only fold up to reassociation (asserted NEAR below), but
  // across thread counts and drain variants they must be bit-identical —
  // SweepCollectFoldThreads would trip on any grouping drift.
  const Graph g = MakeFunnelGraph(800, 4, /*park_weights=*/false);
  const auto run = [&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
  };
  const auto reference = run(CollectFoldOptions(1));
  ASSERT_TRUE(reference.stats.ok());
  for (uint32_t threads : {2u, 3u, 8u}) {
    for (bool partitioned : {true, false}) {
      const EngineOptions o = CollectFoldOptions(threads);
      ExpectIdenticalRuns(reference, run(partitioned ? o : OneRange(o)));
    }
  }
  const auto drain_only = run(PreCombineOptions(1));
  ASSERT_EQ(reference.values.size(), drain_only.values.size());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_NEAR(reference.values[v].rank, drain_only.values[v].rank, 1e-9) << v;
  }
}

TEST(CollectFoldTest, PageRankResidualPushConservesMass) {
  // Undirected grid (no dangling sinks): the collect-side fold must conserve
  // the residual mass the consume hands out, like both existing drains.
  const Graph g =
      Graph::FromEdges(GenerateGridRoad(30, 30, 2), /*directed=*/false);
  const auto result =
      RunPageRank(g, MakeK40(), CollectFoldOptions(3), /*epsilon=*/1e-10);
  ASSERT_TRUE(result.stats.ok());
  double sum = 0.0;
  for (const auto& value : result.values) {
    sum += value.rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(CollectFoldTest, CostModelSkipsLowReuseIterations) {
  // Default min_fold with a chain graph: one candidate per destination, the
  // reuse estimate stays ~1 and the fold-table walk must never engage (the
  // record stream is already minimal). The funnel's hub iteration clears the
  // default threshold and folds.
  EdgeList e;
  for (VertexId v = 0; v < 199; ++v) {
    e.Add(v, v + 1, 1);
  }
  const Graph chain = Graph::FromEdges(e, /*directed=*/true);
  EngineOptions gated = PreCombineOptions(3);
  gated.pre_combine_collect = true;  // min_fold stays at the default
  const auto chain_run = RunBfs(chain, 0, MakeK40(), gated);
  ASSERT_TRUE(chain_run.stats.ok());
  EXPECT_EQ(chain_run.stats.collect_fold_iterations, 0u);
  EXPECT_EQ(chain_run.stats.push_records_buffered,
            chain_run.stats.push_record_candidates);

  const Graph funnel = MakeFunnelGraph(2000, 3, /*park_weights=*/false);
  const auto funnel_run = RunBfs(funnel, 0, MakeK40(), gated);
  ASSERT_TRUE(funnel_run.stats.ok());
  EXPECT_GT(funnel_run.stats.collect_fold_iterations, 0u);
  EXPECT_LT(funnel_run.stats.push_records_buffered,
            funnel_run.stats.push_record_candidates);
  // Gating is simulated-stats-driven, so a gated run still matches the
  // always-fold run on every simulated stat (only the fold decision per
  // iteration — and hence the buffered telemetry — can differ).
  ExpectIdenticalSimStats(funnel_run,
                          RunBfs(funnel, 0, MakeK40(), CollectFoldOptions(3)));
}

TEST(CollectFoldTest, PerRecordContractUntouchedWithoutPreCombineReplay) {
  // pre_combine_collect without pre_combine_replay must be a no-op: folding
  // records under the per-record drain would change kPerRecord stats, so the
  // engine refuses, and the run stays byte-identical to a default-options
  // run — including the record-stream telemetry — at every thread count.
  const Graph g = MakeFunnelGraph(1500, 3, /*park_weights=*/false);
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    EngineOptions collect_only = PushOptions(threads);
    collect_only.pre_combine_collect = true;
    collect_only.pre_combine_collect_min_fold = 0.0;
    const auto r = RunBfs(g, 0, MakeK40(), collect_only);
    ExpectIdenticalRuns(RunBfs(g, 0, MakeK40(), PushOptions(threads)), r);
    EXPECT_EQ(r.stats.contract, StatsContract::kPerRecord);
    EXPECT_EQ(r.stats.collect_fold_iterations, 0u);
    EXPECT_EQ(r.stats.push_records_buffered, r.stats.push_record_candidates);
  }
}

TEST(CollectFoldTest, OrderSensitiveProgramsIgnoreTheFlagEntirely) {
  // SSSP (bucket parking) and k-Core (mid-stream freeze) must stay on the
  // per-record drain with an untouched record stream even with both
  // pre-combine flags set.
  const Graph g = MakeFunnelGraph(1500, 3, /*park_weights=*/true);
  const auto sssp = RunSssp(g, 0, MakeK40(), CollectFoldOptions(3));
  ExpectIdenticalRuns(RunSssp(g, 0, MakeK40(), PartitionedPushOptions(3)), sssp);
  EXPECT_EQ(sssp.stats.contract, StatsContract::kPerRecord);
  EXPECT_EQ(sssp.stats.push_records_buffered, sssp.stats.push_record_candidates);

  const Graph rmat = Graph::FromEdges(GenerateRmat(10, 8, 23), /*directed=*/false);
  const auto kcore = RunKCore(rmat, 8, MakeK40(), CollectFoldOptions(3));
  ExpectIdenticalRuns(RunKCore(rmat, 8, MakeK40(), PartitionedPushOptions(3)),
                      kcore);
  EXPECT_EQ(kcore.stats.contract, StatsContract::kPerRecord);
  EXPECT_EQ(kcore.stats.collect_fold_iterations, 0u);
}

TEST(CollectFoldTest, BallotOnlyPolicyDropsTheWorkerLane) {
  // Same results with and without the worker lane (kBallotOnly never reads
  // it); the drop is pure memory diet. kJit keeps the lane — also asserted
  // as a same-stats run, since the lane itself is not observable in stats,
  // only through bin routing (covered by every other test at kJit).
  const Graph g = MakeFunnelGraph(1000, 3, /*park_weights=*/false);
  EngineOptions ballot = CollectFoldOptions(3);
  ballot.filter = FilterPolicy::kBallotOnly;
  EngineOptions ballot_serial = CollectFoldOptions(1);
  ballot_serial.filter = FilterPolicy::kBallotOnly;
  ExpectIdenticalRuns(RunBfs(g, 0, MakeK40(), ballot_serial),
                      RunBfs(g, 0, MakeK40(), ballot));
}

// --- PushBuffer mechanics ---

TEST(PushBufferTest, RegrowsAndReusesCapacity) {
  PushBuffer<uint32_t> buf;
  // First fill: everything regrows from empty.
  buf.BeginCollect(0, false, /*store_workers=*/true, false);
  buf.BeginSource(7, /*src_range=*/0);
  for (uint32_t i = 0; i < 1000; ++i) {
    buf.Append(/*dst=*/i, /*worker=*/i % 48, /*cand=*/i * 3, /*dst_range=*/0);
  }
  ASSERT_EQ(buf.size(), 1000u);
  ASSERT_EQ(buf.sources().size(), 1u);
  EXPECT_EQ(buf.sources()[0].src, 7u);
  EXPECT_EQ(buf.sources()[0].num_records, 1000u);
  const size_t warm_capacity = buf.capacity();

  // BeginCollect keeps capacity: a same-sized refill must not reallocate.
  buf.BeginCollect(0, false, /*store_workers=*/true, false);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), warm_capacity);
  EXPECT_EQ(buf.cost.alu_ops, 0u);
  EXPECT_EQ(buf.edges, 0u);
  buf.BeginSource(3, /*src_range=*/0);
  buf.Append(9, 1, 42, /*dst_range=*/0);
  EXPECT_EQ(buf.capacity(), warm_capacity);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.dst(0), 9u);
  EXPECT_EQ(buf.worker(0), 1u);
  EXPECT_EQ(buf.cand(0), 42u);

  // Overflowing the warm capacity regrows without corrupting contents.
  buf.BeginCollect(0, false, /*store_workers=*/true, false);
  const uint32_t overflow = static_cast<uint32_t>(warm_capacity) + 123;
  for (uint32_t v = 0; v < 4; ++v) {
    buf.BeginSource(v, /*src_range=*/0);
    for (uint32_t i = 0; i < overflow / 4 + 1; ++i) {
      buf.Append(v * 100000 + i, v, v + i, /*dst_range=*/0);
    }
  }
  EXPECT_GT(buf.capacity(), warm_capacity);
  uint32_t r = 0;
  for (const PushSourceSpan& span : buf.sources()) {
    for (uint32_t i = 0; i < span.num_records; ++i, ++r) {
      EXPECT_EQ(buf.dst(r), span.src * 100000 + i);
      EXPECT_EQ(buf.cand(r), span.src + i);
    }
  }
  EXPECT_EQ(r, buf.size());
}

// Minimal Combine carrier for the FoldInto unit tests.
struct MinFoldProgram {
  uint32_t Combine(uint32_t a, uint32_t b) const { return std::min(a, b); }
};

TEST(PushBufferTest, FoldIntoLeftFoldsAndCountsCandidates) {
  PushBuffer<uint32_t> buf;
  buf.BeginCollect(/*ranges=*/0, /*track_spans=*/false, /*store_workers=*/true,
                   /*store_fold_counts=*/true);
  const MinFoldProgram program;
  buf.BeginSource(1, 0);
  const uint32_t slot_a = buf.Append(/*dst=*/5, /*worker=*/7, /*cand=*/30, 0);
  buf.Append(/*dst=*/6, /*worker=*/8, /*cand=*/50, 0);
  // Two later candidates for dst 5 fold into its first record: the candidate
  // left-folds, the fold count grows, dst/worker stay the first record's.
  buf.FoldInto(slot_a, 10, program);
  buf.FoldInto(slot_a, 20, program);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dst(slot_a), 5u);
  EXPECT_EQ(buf.worker(slot_a), 7u);
  EXPECT_EQ(buf.cand(slot_a), 10u);
  EXPECT_EQ(buf.fold_count(slot_a), 3u);
  EXPECT_EQ(buf.fold_count(1), 1u);
  // Spans count only APPENDED records — folded candidates belong to the
  // record they merged into.
  ASSERT_EQ(buf.sources().size(), 1u);
  EXPECT_EQ(buf.sources()[0].num_records, 2u);
}

TEST(PushBufferTest, WorkerLaneDroppedWhenUnobserved) {
  PushBuffer<uint32_t> with_lane;
  with_lane.BeginCollect(0, false, /*store_workers=*/true, false);
  with_lane.BeginSource(0, 0);
  with_lane.Append(1, /*worker=*/9, 11, 0);

  PushBuffer<uint32_t> without_lane;
  without_lane.BeginCollect(0, false, /*store_workers=*/false, false);
  without_lane.BeginSource(0, 0);
  without_lane.Append(1, /*worker=*/9, 11, 0);

  EXPECT_EQ(with_lane.worker(0), 9u);
  EXPECT_EQ(without_lane.worker(0), 0u);  // lane dropped, constant 0
  // The diet is visible in the footprint: 4 bytes per record saved.
  EXPECT_EQ(with_lane.FootprintBytes() - without_lane.FootprintBytes(),
            sizeof(uint32_t));
}

TEST(PushBufferTest, FootprintCountsArmedLanesAndBuckets) {
  PushBuffer<uint32_t> buf;
  // Bucketed + fold counts: per record dst(4) + cand(4) + worker(4) +
  // fold count(4) + bucket index(4), plus one span.
  buf.BeginCollect(/*ranges=*/4, /*track_spans=*/false, /*store_workers=*/true,
                   /*store_fold_counts=*/true);
  buf.BeginSource(0, 0);
  buf.Append(1, 0, 11, /*dst_range=*/2);
  buf.Append(2, 0, 22, /*dst_range=*/3);
  EXPECT_EQ(buf.FootprintBytes(),
            2 * (5 * sizeof(uint32_t)) + sizeof(PushSourceSpan));
  std::vector<uint32_t> owned;
  buf.ForEachRecord(2, [&](uint32_t i) { owned.push_back(i); });
  EXPECT_EQ(owned, std::vector<uint32_t>{0u});
}

// The one-range walk of an unbucketed buffer and the per-range walks of the
// same stream bucketed: each interleaves the consumes of its sources at the
// serial span positions, and together the ranges visit every record and
// source exactly once.
TEST(PushBufferTest, RangeWalksInterleaveConsumesAtSpanEnds) {
  // src -> dsts: 10 -> {1, 2}, 11 -> {}, 12 -> {2, 3}. Vertex v is owned by
  // range v % 2.
  const std::vector<std::pair<VertexId, std::vector<VertexId>>> stream = {
      {10, {1, 2}}, {11, {}}, {12, {2, 3}}};
  const auto collect = [&](PushBuffer<uint32_t>& buf, uint32_t ranges) {
    buf.BeginCollect(ranges, /*track_spans=*/true, /*store_workers=*/true,
                     /*store_fold_counts=*/false);
    for (const auto& [src, dsts] : stream) {
      buf.BeginSource(src, ranges > 1 ? src % 2 : 0);
      for (const VertexId d : dsts) {
        buf.Append(d, 0, d, ranges > 1 ? d % 2 : 0);
      }
    }
    buf.FinishCollect();
  };
  // Walk log: records as their index, consumes as 100 + src.
  const auto walk = [](const PushBuffer<uint32_t>& buf, uint32_t r) {
    std::vector<uint32_t> log;
    buf.ForEachInSerialOrder(
        r, [&](uint32_t i) { log.push_back(i); },
        [&](VertexId src) { log.push_back(100 + src); });
    return log;
  };
  PushBuffer<uint32_t> one;
  collect(one, 0);
  EXPECT_EQ(walk(one, 0),
            (std::vector<uint32_t>{0, 1, 110, 111, 2, 3, 112}));
  std::vector<uint32_t> sources;
  one.ForEachSource(0, [&](VertexId src) { sources.push_back(src); });
  EXPECT_EQ(sources, (std::vector<uint32_t>{10, 11, 12}));

  PushBuffer<uint32_t> two;
  collect(two, 2);
  // Range 0 owns dsts 2 (records 1, 2) and sources 10, 12; range 1 owns
  // dsts 1, 3 (records 0, 3) and source 11.
  EXPECT_EQ(walk(two, 0), (std::vector<uint32_t>{1, 110, 2, 112}));
  EXPECT_EQ(walk(two, 1), (std::vector<uint32_t>{0, 111, 3}));
}

TEST(PlanChunksTest, CollapsesToOneChunkWhenSerial) {
  EXPECT_EQ(PlanChunks(0, 8, 64, 512, true).chunks, 0u);
  const ChunkPlan serial = PlanChunks(100, 1, 64, 512, true);
  EXPECT_EQ(serial.chunks, 1u);
  EXPECT_EQ(serial.grain, 100u);
  EXPECT_EQ(PlanChunks(100, 8, 64, 512, false).chunks, 1u);
  EXPECT_EQ(PlanChunks(100, 8, 64, 512, true).chunks, 1u);  // below serial_below
  const ChunkPlan parallel = PlanChunks(100000, 8, 64, 512, true);
  EXPECT_GT(parallel.chunks, 1u);
  EXPECT_EQ(parallel.chunks,
            ThreadPool::NumChunks(0, 100000, parallel.grain));
}

TEST(PlanChunksStableTest, IndependentOfThreadsAndNeverBelowGrainFloor) {
  EXPECT_EQ(PlanChunksStable(0, 64).chunks, 0u);
  // Small ranges: one chunk (grain floored at min_grain covers everything).
  const ChunkPlan tiny = PlanChunksStable(100, 256);
  EXPECT_EQ(tiny.chunks, 1u);
  EXPECT_EQ(tiny.grain, 256u);
  // Mid-size range: several chunks, boundary formula = ParallelFor's.
  const ChunkPlan mid = PlanChunksStable(600, 256);
  EXPECT_EQ(mid.grain, 256u);
  EXPECT_EQ(mid.chunks, ThreadPool::NumChunks(0, 600, mid.grain));
  EXPECT_EQ(mid.chunks, 3u);
  // Large range: chunk count capped at kStableMaxChunks.
  const ChunkPlan big = PlanChunksStable(10'000'000, 4);
  EXPECT_LE(big.chunks, kStableMaxChunks);
  EXPECT_EQ(big.chunks, ThreadPool::NumChunks(0, 10'000'000, big.grain));
  // The whole point: no thread-count or pool argument exists, so the plan
  // cannot depend on either — unlike PlanChunks, which collapses to one
  // chunk without a pool.
  EXPECT_EQ(PlanChunks(600, 1, 256, 512, true).chunks, 1u);
  EXPECT_EQ(PlanChunksStable(600, 256).chunks, 3u);
}

TEST(CollectAndDrainTest, DrainOrderIsChunkOrderForAnyThreadCount) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> buffers;
  auto run = [&](uint32_t threads) {
    std::vector<int> drained;
    CollectAndDrain(
        &pool, threads, 1000, /*min_grain=*/16, /*serial_below=*/32, buffers,
        [](const ParallelChunk& c, std::vector<int>& buf) {
          buf.clear();
          for (size_t i = c.begin; i < c.end; ++i) {
            buf.push_back(static_cast<int>(i));
          }
        },
        [&](const std::vector<int>& buf) {
          drained.insert(drained.end(), buf.begin(), buf.end());
        });
    return drained;
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(serial[i], i);
  }
  for (uint32_t threads : {2u, 4u}) {
    EXPECT_EQ(run(threads), serial) << threads;
  }
}

TEST(PartitionedDrainTest, DrainsEachPartitionOnceMergesInOrder) {
  ThreadPool pool(4);
  for (uint32_t threads : {1u, 2u, 4u}) {
    for (uint32_t parts : {1u, 5u, 16u}) {
      std::vector<int> drained(parts, 0);
      std::vector<uint32_t> merge_order;
      PartitionedDrain(
          &pool, threads, parts, [&](uint32_t p) { drained[p] += 1; },
          [&](uint32_t p) { merge_order.push_back(p); });
      for (uint32_t p = 0; p < parts; ++p) {
        EXPECT_EQ(drained[p], 1) << threads << " " << parts;
        ASSERT_LT(p, merge_order.size());
        EXPECT_EQ(merge_order[p], p);  // ascending partition order, always
      }
    }
  }
  int calls = 0;
  PartitionedDrain(
      &pool, 4, 0, [&](uint32_t) { ++calls; }, [&](uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PartitionedDrainTest, NullPoolRunsInline) {
  std::vector<uint32_t> order;
  PartitionedDrain(
      nullptr, 8, 4, [&](uint32_t p) { order.push_back(p); },
      [&](uint32_t p) { order.push_back(100 + p); });
  const std::vector<uint32_t> expect = {0, 1, 2, 3, 100, 101, 102, 103};
  EXPECT_EQ(order, expect);
}

TEST(BalancedRangeBoundariesTest, UniformWeightsSplitEvenly) {
  const auto b =
      BalancedRangeBoundaries(100, 4, [](size_t i) { return uint64_t{i}; });
  const std::vector<size_t> expect = {0, 25, 50, 75, 100};
  EXPECT_EQ(b, expect);
}

TEST(BalancedRangeBoundariesTest, SkewedMassShrinksHeavyRanges) {
  // Vertex 0 carries half the total mass: the first range must be just it.
  const uint64_t heavy = 99;
  const auto cum = [&](size_t i) {
    return i == 0 ? uint64_t{0} : heavy + (i - 1);
  };
  const auto b = BalancedRangeBoundaries(100, 4, cum);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 100u);
  EXPECT_EQ(b[1], 1u);  // the heavy vertex alone reaches the 1/4 target
  for (size_t k = 1; k < b.size(); ++k) {
    EXPECT_GE(b[k], b[k - 1]);
  }
}

TEST(BalancedRangeBoundariesTest, MorePartsThanElements) {
  const auto b =
      BalancedRangeBoundaries(3, 8, [](size_t i) { return uint64_t{i}; });
  ASSERT_EQ(b.size(), 9u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 3u);
  for (size_t k = 1; k < b.size(); ++k) {
    EXPECT_GE(b[k], b[k - 1]);  // empty trailing ranges are legal
  }
}

TEST(BalancedRangeBoundariesTest, ZeroTotalMassSplitsElementsEvenly) {
  // Zero-edge graph / empty frontier: every cum() is 0, so the binary-search
  // targets are all 0. The old behavior collapsed every interior boundary to
  // 0, leaving the LAST range owning all n elements; the fix falls back to
  // an even element split.
  const auto b =
      BalancedRangeBoundaries(100, 4, [](size_t) { return uint64_t{0}; });
  const std::vector<size_t> expect = {0, 25, 50, 75, 100};
  EXPECT_EQ(b, expect);
}

TEST(BalancedRangeBoundariesTest, ZeroElements) {
  const auto b =
      BalancedRangeBoundaries(0, 4, [](size_t) { return uint64_t{0}; });
  const std::vector<size_t> expect = {0, 0, 0, 0, 0};
  EXPECT_EQ(b, expect);
}

TEST(PlanChunksTest, ZeroElementsProducesNoChunks) {
  // Regression: both planners must return chunks == 0 (not a single empty
  // chunk) for n == 0 — the engine's drains iterate plan.chunks directly.
  EXPECT_EQ(PlanChunks(0, 8, 64, 512, true).chunks, 0u);
  EXPECT_EQ(PlanChunks(0, 1, 64, 512, false).chunks, 0u);
  EXPECT_EQ(PlanChunksStable(0, 1).chunks, 0u);
}

}  // namespace
}  // namespace simdx
