// Bit-parallel multi-source BFS: the differential contract is per-lane
// BIT-EQUALITY — ExtractLaneLevels(state, i) must equal the single-source
// BfsProgram's value array for source i, for every lane, under every thread
// count and both stats contracts (per-record and pre-combined). On top of
// correctness, the batching economics are gated: one 64-source run must cost
// less than 2x the edge work of ONE full single-source traversal (vs ~64x
// for independent runs) — the property that makes service-side coalescing a
// throughput multiplier instead of a curiosity.
//
// NIGHTLY SCALING: like the integration sweeps, the randomized differential
// here reads SIMDX_SWEEP_SEEDS / SIMDX_SWEEP_SCALE / SIMDX_SWEEP_THREADS so
// the scheduled nightly workflow can widen the matrix without touching the
// seconds-scale defaults.
#include "algos/msbfs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algos/algos.h"
#include "core/fault.h"
#include "core/fingerprint.h"
#include "core/robust.h"
#include "graph/generators.h"
#include "simt/device.h"

namespace simdx {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return (end != nullptr && *end == '\0') ? static_cast<uint64_t>(v) : fallback;
}

std::vector<uint32_t> EnvThreads() {
  const char* s = std::getenv("SIMDX_SWEEP_THREADS");
  std::vector<uint32_t> out;
  if (s != nullptr && *s != '\0') {
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const int v = std::atoi(tok.c_str());
      if (v >= 1) {
        out.push_back(static_cast<uint32_t>(v));
      }
    }
  }
  if (out.empty()) {
    out = {1, 3, 8};
  }
  return out;
}

EngineOptions TestOptions() {
  EngineOptions o;
  o.sim_worker_threads = 64;
  return o;
}

std::vector<VertexId> DistinctRandomSources(const Graph& g, size_t count,
                                            uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VertexId> sources;
  while (sources.size() < count && sources.size() < g.vertex_count()) {
    const VertexId s = static_cast<VertexId>(rng() % g.vertex_count());
    bool dup = false;
    for (VertexId t : sources) {
      dup = dup || t == s;
    }
    if (!dup) {
      sources.push_back(s);
    }
  }
  return sources;
}

VertexId HubVertex(const Graph& g) {
  VertexId best = 0;
  uint64_t best_deg = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > best_deg) {
      best_deg = g.OutDegree(v);
      best = v;
    }
  }
  return best;
}

// The differential + determinism sweep: every lane equals its solo BFS, the
// fingerprint is host-thread-invariant, and the pre-combined (per-
// destination) contract extracts the identical level table.
TEST(MsBfsTest, LanesMatchSoloBfsAcrossThreadsAndContracts) {
  const uint64_t seeds = std::max<uint64_t>(1, EnvU64("SIMDX_SWEEP_SEEDS", 2));
  const uint32_t scale = static_cast<uint32_t>(
      std::min<uint64_t>(20, std::max<uint64_t>(6, EnvU64("SIMDX_SWEEP_SCALE", 8))));
  const std::vector<uint32_t> threads = EnvThreads();

  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    const Graph g = Graph::FromEdges(GenerateRmat(scale, 8, seed), false);
    const std::vector<VertexId> sources =
        DistinctRandomSources(g, 64, seed * 101);

    // Solo oracle per lane, computed once per graph.
    std::vector<std::vector<uint32_t>> oracle;
    oracle.reserve(sources.size());
    for (VertexId s : sources) {
      oracle.push_back(RunBfs(g, s, MakeK40(), TestOptions()).values);
    }

    std::string reference_fp;
    for (const bool pre_combine : {false, true}) {
      for (const uint32_t host_threads : threads) {
        EngineOptions o = TestOptions();
        o.host_threads = host_threads;
        o.pre_combine_replay = pre_combine;
        const MsBfsRunResult ms = RunMsBfs(g, sources, MakeK40(), o);
        ASSERT_TRUE(ms.run.stats.ok());
        ASSERT_EQ(ms.state.lanes(), sources.size());
        for (uint32_t lane = 0; lane < ms.state.lanes(); ++lane) {
          EXPECT_EQ(ExtractLaneLevels(ms.state, lane), oracle[lane])
              << "seed " << seed << " lane " << lane << " threads "
              << host_threads << " pre_combine " << pre_combine;
        }
        // Thread invariance holds per contract; the contracts themselves
        // legitimately differ (kPerRecord vs kPerDestination counters).
        const std::string fp = StatsFingerprint(ms.run);
        if (host_threads == threads.front()) {
          reference_fp = fp;
        } else {
          EXPECT_EQ(fp, reference_fp)
              << "host_threads must not change the simulated stats";
        }
      }
    }
  }
}

// The batching economics gate from the coalescing design: 64 sources in one
// bit-parallel run cost < 2x the edge work of ONE exhaustive single-source
// traversal of the same graph. Apples to apples: the baseline is a
// force_push BFS (visits every edge of the reached region exactly once —
// the same full-coverage unit MS-BFS must pay at minimum), the sources are
// drawn from the traversed component (a source in a far-flung islet can
// never settle the lane mask, which disables the census policy — and no
// client batches queries about disconnected islets with hub traffic).
TEST(MsBfsTest, SixtyFourSourcesUnderTwiceOneTraversalsEdgeWork) {
  const Graph g = Graph::FromEdges(GenerateRmat(10, 16, 3), false);
  EngineOptions push_only = TestOptions();
  push_only.force_push = true;
  const VertexId hub = HubVertex(g);
  const auto baseline = RunBfs(g, hub, MakeK40(), push_only);
  ASSERT_TRUE(baseline.stats.ok());
  ASSERT_GT(baseline.stats.total_edges_processed, 0u);

  std::mt19937_64 rng(7);
  std::vector<VertexId> sources;
  while (sources.size() < 64) {
    const VertexId s = static_cast<VertexId>(rng() % g.vertex_count());
    if (baseline.values[s] == kInfinity) {
      continue;  // outside the traversed component
    }
    bool dup = false;
    for (VertexId t : sources) {
      dup = dup || t == s;
    }
    if (!dup) {
      sources.push_back(s);
    }
  }

  const MsBfsRunResult ms = RunMsBfs(g, sources, MakeK40(), TestOptions());
  ASSERT_TRUE(ms.run.stats.ok());
  EXPECT_LT(ms.run.stats.total_edges_processed,
            2 * baseline.stats.total_edges_processed)
      << "direction pattern: " << ms.run.stats.direction_pattern;
  // The win must come from the census policy actually engaging: the late
  // waves gather instead of re-pushing.
  EXPECT_NE(ms.run.stats.direction_pattern.find('P'), std::string::npos)
      << "expected pull iterations, got " << ms.run.stats.direction_pattern;
  // And the cheap run still answers correctly.
  for (uint32_t lane = 0; lane < ms.state.lanes(); ++lane) {
    ASSERT_EQ(ExtractLaneLevels(ms.state, lane),
              RunBfs(g, sources[lane], MakeK40(), TestOptions()).values)
        << "lane " << lane;
  }
}

TEST(MsBfsTest, LaneAssemblyDedupsAndCapsAtSixtyFour) {
  MsBfsState state;
  // Duplicates collapse onto the first lane...
  MsBfsInit(&state, {5, 9, 5, 9, 11}, 16);
  EXPECT_EQ(state.lanes(), 3u);
  EXPECT_EQ(state.LaneOf(5), 0u);
  EXPECT_EQ(state.LaneOf(9), 1u);
  EXPECT_EQ(state.LaneOf(11), 2u);
  EXPECT_EQ(state.full_mask, 0x7ull);
  // ...and distinct sources beyond the machine-word width are dropped.
  std::vector<VertexId> many;
  for (VertexId v = 0; v < 80; ++v) {
    many.push_back(v);
  }
  MsBfsInit(&state, many, 128);
  EXPECT_EQ(state.lanes(), 64u);
  EXPECT_EQ(state.full_mask, ~0ull);
  EXPECT_EQ(state.LaneOf(79), 64u) << "dropped source has no lane";
}

// A faulted multi-source run resumed from a checkpoint must reproduce the
// uninterrupted answer bit-for-bit — the level table rides the program-state
// checkpoint section (Save/RestoreSchedulerState), and the settled census is
// rebuilt, not restored, so the direction policy sees identical inputs.
TEST(MsBfsTest, ResumedRunReproducesLevelsBitForBit) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 5), false);
  const std::vector<VertexId> sources = DistinctRandomSources(g, 64, 77);
  const EngineOptions o = TestOptions();

  const MsBfsRunResult clean = RunMsBfs(g, sources, MakeK40(), o);
  ASSERT_TRUE(clean.run.stats.ok());

  FaultRegistry faults;
  std::string error;
  ASSERT_TRUE(FaultRegistry::Parse("iteration-start@2", &faults, &error))
      << error;
  RobustRunOptions robust;
  robust.checkpoint_every = 1;
  robust.max_attempts = 2;
  robust.faults = &faults;

  MsBfsRunResult resumed;
  MsBfsInit(&resumed.state, sources, g.vertex_count());
  MsBfsProgram program;
  program.state = &resumed.state;
  program.graph = &g;
  Engine<MsBfsProgram> engine(g, MakeK40(), o);
  resumed.run = RobustRun(engine, program, robust);
  ASSERT_TRUE(resumed.run.stats.ok());
  EXPECT_EQ(resumed.run.stats.outcome, RunOutcome::kResumed);
  EXPECT_EQ(resumed.state.levels, clean.state.levels);
  EXPECT_EQ(resumed.run.values, clean.run.values);
}

}  // namespace
}  // namespace simdx
