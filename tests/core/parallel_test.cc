#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

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

TEST(ThreadPoolTest, ConcurrentSubmittersEachRunTheirOwnJob) {
  // Callers on different threads queue on the pool's submission lock, so the
  // workers see back-to-back jobs from different submitters; a worker still
  // finishing one job must never claim a chunk of the next (the claims are
  // epoch-tagged). Each job writes its own plain array, so a chunk run twice
  // or after its job returned shows as a wrong count and, under TSan, as a
  // race. Rounds repeat until some submit found the lock held, which proves
  // the test reached the contended branch.
  ThreadPool pool(8);
  constexpr uint32_t kSubmitters = 4;
  constexpr int kJobsPerRound = 300;
  constexpr int kMaxRounds = 20;
  int rounds = 0;
  while (pool.telemetry().contended_submits == 0 && rounds < kMaxRounds) {
    ++rounds;
    std::atomic<int> bad_jobs{0};
    std::vector<std::thread> submitters;
    for (uint32_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&pool, &bad_jobs, t] {
        // A different range, grain and thread cap per submitter.
        std::vector<uint32_t> hits(1000 + 97 * t);
        for (int job = 0; job < kJobsPerRound; ++job) {
          std::fill(hits.begin(), hits.end(), 0u);
          pool.ParallelFor(0, hits.size(), 16 + t, 2 + t,
                           [&hits](const ParallelChunk& c) {
                             for (size_t i = c.begin; i < c.end; ++i) {
                               ++hits[i];
                             }
                           });
          if (std::any_of(hits.begin(), hits.end(),
                          [](uint32_t h) { return h != 1; })) {
            bad_jobs.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& s : submitters) {
      s.join();
    }
    EXPECT_EQ(bad_jobs.load(), 0) << "round " << rounds;
  }
  EXPECT_GT(pool.telemetry().contended_submits, 0u)
      << "no submit found the lock held in " << kMaxRounds << " rounds";
}

// --- Engine determinism: the contract the whole runtime is built around.
// host_threads must be a pure wall-clock knob: every simulated statistic and
// every output value byte-identical to the single-threaded run. ---

// Everything the bench StatsFingerprint freezes, plus the buffered push
// record count (host telemetry outside the fingerprint, but deterministic
// for any host_threads all the same).
template <typename Value>
void ExpectIdenticalRuns(const RunResult<Value>& a, const RunResult<Value>& b) {
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
  // The option builders below turn the log on; with it off this comparison
  // would pass with nothing compared.
  EXPECT_FALSE(a.stats.iterations > 0 && a.stats.iteration_logs.empty());
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
  EXPECT_EQ(a.stats.push_records_buffered, b.stats.push_records_buffered);
}

// The records of the run's largest push iteration. A push iteration logs
// its record count as edges_processed — the push profile's `records`
// (PreCombinedReplayTest.ProfileReportsFoldRatio pins that they agree).
template <typename Value>
uint64_t LargestPushIteration(const RunResult<Value>& r) {
  uint64_t most = 0;
  for (const IterationLog& log : r.stats.iteration_logs) {
    if (log.direction == 'p') {
      most = std::max(most, log.edges_processed);
    }
  }
  return most;
}

EngineOptions OptionsWithThreads(uint32_t host_threads) {
  EngineOptions o;
  o.host_threads = host_threads;
  o.keep_iteration_log = true;  // ExpectIdenticalRuns compares the logs
  return o;
}

TEST(EngineHostThreadsDeterminismTest, PageRankOnRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(12, 8, 7), /*directed=*/true);
  const auto serial = RunPageRank(g, MakeK40(), OptionsWithThreads(1));
  ASSERT_TRUE(serial.stats.ok());
  // Pull-heavy workload: the frontier stays wide for most iterations, and
  // its push iterations reach the multi-chunk collect.
  ASSERT_NE(serial.stats.direction_pattern.find('P'), std::string::npos);
  EXPECT_GE(LargestPushIteration(serial), kParallelCollectMinRecords);
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
// collect-then-replay scatter (the flat record stream + ordered drain), so
// these sweeps exercise exactly the code the pull-heavy tests above miss.
// Skewed R-MAT graphs make the Thread/Warp/CTA lists all non-empty, putting
// chunks of every kernel class into the replay order. ---

EngineOptions ForcedPushOptions(uint32_t host_threads) {
  EngineOptions o = OptionsWithThreads(host_threads);
  o.force_push = true;
  return o;
}

// A sweep that must cover the multi-chunk collect passes
// kParallelCollectMinRecords as `min_records`: below that many records a
// push iteration collects on the Run thread at any host_threads, so only
// an iteration at or above it splits the collect over pool chunks.
template <typename RunFn>
void SweepPushThreads(const RunFn& run, uint64_t min_records = 0) {
  const auto serial = run(ForcedPushOptions(1));
  ASSERT_TRUE(serial.stats.ok());
  EXPECT_GE(LargestPushIteration(serial), min_records);
  for (uint32_t threads : {2u, 3u, 8u}) {
    const auto parallel = run(ForcedPushOptions(threads));
    ExpectIdenticalRuns(serial, parallel);
    // Counters also compare wholesale (CostCounters::operator==) so a new
    // counter field added later cannot silently escape the gate.
    EXPECT_TRUE(serial.stats.counters == parallel.stats.counters) << threads;
  }
}

TEST(EnginePushDeterminismTest, BfsAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 13), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(EnginePushDeterminismTest, SsspAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 17), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(EnginePushDeterminismTest, WccAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 19), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(EnginePushDeterminismTest, KCoreAllPushOnSkewedRmat) {
  const Graph g = Graph::FromEdges(GenerateRmat(14, 8, 23), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunKCore(g, 8, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(EnginePushDeterminismTest, PageRankResidualPushConservesMass) {
  // All-push PageRank: every vertex is a source AND a destination of the
  // same phase, so this is the hardest case for the snapshot semantics —
  // residual arriving during replay must survive ConsumeActivity.
  // 70x70: the all-vertex first push carries ~19,400 records. Each vertex
  // may keep up to epsilon of residual unpushed, so epsilon shrinks with
  // the vertex count to keep the unconverged mass under the 1e-6 check.
  const Graph g = Graph::FromEdges(GenerateGridRoad(70, 70, 2), /*directed=*/false);
  const auto run = [&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-11);
  };
  SweepPushThreads(run, kParallelCollectMinRecords);
  // Undirected grid without isolated vertices: no dangling mass, ranks sum
  // to 1 at the fixpoint — catches any activity lost to consume/apply
  // reordering even when the run is internally consistent.
  const auto result = run(ForcedPushOptions(3));
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

// --- Push contention: many records per destination ---

// The shared funnel shape (graph/generators.h GenerateFunnel): root ->
// `sources` spokes, every spoke -> each of `hubs` hub vertices. One push
// iteration converges sources*hubs records on `hubs` destinations: a
// multi-chunk collect feeding very long per-destination apply chains whose
// order must stay serial.
Graph MakeFunnelGraph(uint32_t sources, uint32_t hubs, bool park_weights) {
  return Graph::FromEdges(GenerateFunnel(sources, hubs, park_weights),
                          /*directed=*/true);
}

TEST(PushContentionTest, HighContentionBfsDeterministic) {
  // 18,000 records, three destinations: very long apply chains collected
  // by several chunks.
  const Graph g = MakeFunnelGraph(6000, 3, /*park_weights=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PushContentionTest, HighContentionSsspParksDeterministically) {
  // Spoke->hub weights straddle the delta bucket, so Apply parks during
  // the drain; the pending list must come out in the serial order
  // (RefillFrontier drains it in order, so any reordering changes the
  // released frontier and trips the gate).
  const Graph g = MakeFunnelGraph(6000, 3, /*park_weights=*/true);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PushContentionTest, HighContentionPageRankConsumeInterleaves) {
  // All-push PageRank on the funnel: hubs are sources AND heavily-contended
  // destinations of the same phase, so their ConsumeActivity must land
  // right after their last slot, between the applies around it (FP
  // addition does not commute — any reordering shows up bit-for-bit).
  const Graph g = MakeFunnelGraph(4000, 4, /*park_weights=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) {
        return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
      },
      kParallelCollectMinRecords);
}

TEST(PushContentionTest, KCorePushDeterministic) {
  // k-Core's mid-stream freeze depends on where in the record stream the
  // threshold is crossed, so its drain order must be the serial one. Also
  // guards the KCoreValue byte representation: the gates hash raw value
  // bytes, so the value type must stay padding-free (see kcore.h).
  const Graph g = Graph::FromEdges(GenerateRmat(14, 8, 43), /*directed=*/false);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunKCore(g, 8, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PushContentionTest, HighContentionAtomicConflictsDeterministic) {
  const Graph g = MakeFunnelGraph(9000, 2, /*park_weights=*/false);
  SweepPushThreads(
      [&](EngineOptions o) {
        o.use_atomic_updates = true;
        o.enable_vote_early_exit = false;
        return RunBfs(g, 0, MakeK40(), o);
      },
      kParallelCollectMinRecords);
}

TEST(PushContentionTest, TinyChainAtEightThreads) {
  // A 5-vertex chain at 8 threads: one record per iteration, so every
  // collect is one chunk and every drain replays a single record.
  EdgeList e;
  for (VertexId v = 0; v < 4; ++v) {
    e.Add(v, v + 1, 1);
  }
  const Graph g = Graph::FromEdges(e, /*directed=*/true);
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); });
  SweepPushThreads(
      [&](const EngineOptions& o) { return RunSssp(g, 0, MakeK40(), o); });
}

// The record lanes outlive a Run and only grow: after the root run they
// hold thousands of records, and a spoke run's iterations fill only the
// first few slots. A drain that read past the iteration's record count would
// replay the root run's stale records. use_atomic_updates charges one atomic
// per replayed record, so such a replay shows in the counters even where it
// changes no value. PPR walks the consume path (the list cursor).
TEST(EngineReuseTest, LargePushVolumeThenSmallMatchesFreshEngine) {
  const Graph g = MakeFunnelGraph(6000, 3, /*park_weights=*/false);
  const VertexId root = 0;
  const VertexId spoke = 4;  // the first spoke: vertices 1..3 are the hubs
  for (uint32_t threads : {1u, 4u}) {
    EngineOptions o = ForcedPushOptions(threads);
    o.use_atomic_updates = true;
    Engine<BfsProgram> bfs(g, MakeK40(), o);
    Engine<PprProgram> ppr(g, MakeK40(), o);
    for (const VertexId source : {root, spoke}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " source=" << source);
      BfsProgram bfs_program;
      bfs_program.source = source;
      const auto reused = bfs.Run(bfs_program);
      ASSERT_TRUE(reused.stats.ok());
      // The premise: thousands of records from the root, in an iteration
      // that reaches the multi-chunk collect, and a handful from the spoke.
      if (source == root) {
        EXPECT_GE(LargestPushIteration(reused), kParallelCollectMinRecords);
      } else {
        EXPECT_LT(reused.stats.push_records_buffered, 10u);
      }
      ExpectIdenticalRuns(RunBfs(g, source, MakeK40(), o), reused);
      PprProgram ppr_program;
      ppr_program.graph = &g;
      ppr_program.source = source;
      ExpectIdenticalRuns(RunPpr(g, source, MakeK40(), o),
                          ppr.Run(ppr_program));
    }
  }
}

// --- Pre-combined replay (associative fold drain, kPerDestination) ---
//
// For kAssociativeOnly programs with pre_combine_replay set, the drain folds
// each destination's records with Combine and issues one Apply per touched
// destination. The contract: values, stats and touch sets bit-identical
// across host_threads — not to the per-record drain, which stays
// byte-for-byte untouched.

EngineOptions PreCombineOptions(uint32_t host_threads) {
  EngineOptions o = ForcedPushOptions(host_threads);
  o.pre_combine_replay = true;
  return o;
}

// Each thread count must match the 1-thread run.
template <typename RunFn>
void SweepPreCombinedThreads(const RunFn& run, uint64_t min_records = 0) {
  const auto serial = run(PreCombineOptions(1));
  ASSERT_TRUE(serial.stats.ok());
  EXPECT_GE(LargestPushIteration(serial), min_records);
  for (uint32_t threads : {2u, 3u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto parallel = run(PreCombineOptions(threads));
    ExpectIdenticalRuns(serial, parallel);
    EXPECT_TRUE(serial.stats.counters == parallel.stats.counters);
  }
}

TEST(PreCombinedReplayTest, AllRecordsOneDestinationFunnel) {
  // hubs=1: every record of the big iteration funnels into ONE destination —
  // a single fold chain spanning many collect chunks.
  const Graph g = MakeFunnelGraph(17000, 1, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PreCombinedReplayTest, HighContentionBfsDeterministic) {
  const Graph g = MakeFunnelGraph(6000, 3, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunBfs(g, 0, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PreCombinedReplayTest, BallotOnlyPolicyDeterministic) {
  // kBallotOnly never consults the worker lane the online bins are keyed
  // by; the fold drain must stay deterministic under it all the same.
  const Graph g = MakeFunnelGraph(6000, 3, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](EngineOptions o) {
        o.filter = FilterPolicy::kBallotOnly;
        return RunBfs(g, 0, MakeK40(), o);
      },
      kParallelCollectMinRecords);
}

TEST(PreCombinedReplayTest, WccOnSkewedRmatDeterministic) {
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 47), /*directed=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunWcc(g, MakeK40(), o); },
      kParallelCollectMinRecords);
}

TEST(PreCombinedReplayTest, SpmvForcedPushDeterministicAndMatchesPull) {
  // SpMV's replace-style Apply needs the full fold: the pre-combined forced
  // push must be thread-count deterministic AND agree with the natural pull
  // computation of y = A x (up to record-order reassociation of the sum).
  const Graph g = Graph::FromEdges(GenerateRmat(11, 8, 59), /*directed=*/false);
  std::vector<double> x(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    x[v] = 1.0 / (1.0 + v);
  }
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) { return RunSpmv(g, x, MakeK40(), o); },
      kParallelCollectMinRecords);
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
  const Graph g = MakeFunnelGraph(4000, 4, /*park_weights=*/false);
  SweepPreCombinedThreads(
      [&](const EngineOptions& o) {
        return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-10);
      },
      kParallelCollectMinRecords);
}

TEST(PreCombinedReplayTest, PageRankResidualPushConservesMass) {
  // Same invariant as the per-record drain's mass test: apply-then-consume
  // hands every same-phase arrival to the consume, so no activity is lost.
  const Graph g =
      Graph::FromEdges(GenerateGridRoad(70, 70, 2), /*directed=*/false);
  const auto run = [&](const EngineOptions& o) {
    return RunPageRank(g, MakeK40(), o, /*epsilon=*/1e-11);
  };
  SweepPreCombinedThreads(run, kParallelCollectMinRecords);
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
  const auto per_record = RunBfs(g, 0, MakeK40(), ForcedPushOptions(3));
  const auto pre_combined = RunBfs(g, 0, MakeK40(), PreCombineOptions(3));
  EXPECT_EQ(per_record.values, pre_combined.values);
}

TEST(PreCombinedReplayTest, TinyChainAtEightThreads) {
  // 5-vertex chain at 8 threads: at most one touched destination per
  // iteration, so every touched list holds a single entry.
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
  const auto without = RunSssp(g, 0, MakeK40(), ForcedPushOptions(3));
  ExpectIdenticalRuns(without, with_flag);
  EXPECT_EQ(with_flag.stats.contract, StatsContract::kPerRecord);
}

TEST(PreCombinedReplayTest, KCoreIgnoresTheFlag) {
  // k-Core is the other order-sensitive program (its mid-stream freeze
  // depends on where in the record stream the threshold is crossed): the
  // flag must leave the whole run on the per-record drain, byte-identical to
  // the flag-off run, at every thread count.
  const Graph g = Graph::FromEdges(GenerateRmat(10, 8, 23), /*directed=*/false);
  for (uint32_t threads : {1u, 3u, 8u}) {
    const auto with_flag =
        RunKCore(g, 8, MakeK40(), PreCombineOptions(threads));
    ExpectIdenticalRuns(
        RunKCore(g, 8, MakeK40(), ForcedPushOptions(threads)), with_flag);
    EXPECT_EQ(with_flag.stats.contract, StatsContract::kPerRecord) << threads;
  }
}

TEST(PreCombinedReplayTest, AtomicChargesCollapseToPerDestination) {
  // Under atomics + pre-combining, each touched destination charges exactly
  // one atomic per iteration, so same-destination conflicts vanish — the
  // ACC pre-aggregation argument of Figure 5, now visible in the contract.
  const Graph g = MakeFunnelGraph(9000, 2, /*park_weights=*/false);
  const auto run = [&](EngineOptions o) {
    o.use_atomic_updates = true;
    o.enable_vote_early_exit = false;
    return RunBfs(g, 0, MakeK40(), o);
  };
  SweepPreCombinedThreads(run, kParallelCollectMinRecords);
  const auto pre = run(PreCombineOptions(3));
  const auto per_record = run(ForcedPushOptions(3));
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
    EngineOptions defaults = ForcedPushOptions(threads);
    EngineOptions off = ForcedPushOptions(threads);
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
  // One serial drain per push iteration, at any host_threads.
  EXPECT_EQ(prof.iterations.size(), prof.serial_replays);
  EXPECT_EQ(prof.partitioned_replays, 0u);
  ASSERT_GT(prof.fold_applies, 0u);
  // Run-wide the fold must have removed work (more records than applies)...
  EXPECT_GT(prof.fold_records, prof.fold_applies);
  // ...and the funnel iteration (1000 spokes -> 3 hubs) must show an extreme
  // per-iteration fold ratio.
  uint64_t best_ratio = 0;
  for (const PushReplayIterationSplit& it : prof.iterations) {
    EXPECT_GE(it.collect_ms, 0.0);
    EXPECT_GE(it.replay_ms, 0.0);
    EXPECT_TRUE(it.pre_combined);
    EXPECT_LE(it.applies, it.records);
    // The iteration log carries the same record count, which is what
    // LargestPushIteration reads.
    ASSERT_LT(it.iteration, result.stats.iteration_logs.size());
    EXPECT_EQ(result.stats.iteration_logs[it.iteration].edges_processed,
              it.records);
    if (it.applies > 0) {
      best_ratio = std::max(best_ratio, it.records / it.applies);
    }
  }
  EXPECT_GT(best_ratio, 100u);
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

TEST(PlanChunksTest, ZeroElementsProducesNoChunks) {
  // Regression: the planner must return chunks == 0 (not a single empty
  // chunk) for n == 0 — the engine's drains iterate plan.chunks directly.
  EXPECT_EQ(PlanChunks(0, 8, 64, 512, true).chunks, 0u);
  EXPECT_EQ(PlanChunks(0, 1, 64, 512, false).chunks, 0u);
}

}  // namespace
}  // namespace simdx
