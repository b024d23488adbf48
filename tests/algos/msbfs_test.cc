// Bit-parallel multi-source BFS: the differential contract is per-lane
// BIT-EQUALITY — lane i's bytes from DemuxLanes must equal the bytes of the
// single-source BfsProgram's value array for source i, for every lane, under
// every thread count and both stats contracts (per-record and pre-combined). On top of
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
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algos/algos.h"
#include "core/checkpoint.h"
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

std::vector<uint8_t> Bytes(const std::vector<uint32_t>& v) {
  std::vector<uint8_t> out(v.size() * sizeof(uint32_t));
  if (!out.empty()) {
    std::memcpy(out.data(), v.data(), out.size());
  }
  return out;
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
    std::vector<std::vector<uint8_t>> oracle;
    oracle.reserve(sources.size());
    for (VertexId s : sources) {
      oracle.push_back(Bytes(RunBfs(g, s, MakeK40(), TestOptions()).values));
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
        const MsBfsLaneAnswers answers = DemuxLanes(ms.state, ms.state.full_mask);
        for (uint32_t lane = 0; lane < ms.state.lanes(); ++lane) {
          EXPECT_EQ(answers.bytes[lane], oracle[lane])
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
  const MsBfsLaneAnswers answers = DemuxLanes(ms.state, ms.state.full_mask);
  for (uint32_t lane = 0; lane < ms.state.lanes(); ++lane) {
    ASSERT_EQ(answers.bytes[lane],
              Bytes(RunBfs(g, sources[lane], MakeK40(), TestOptions()).values))
        << "lane " << lane;
  }
}

// The one-sweep demux at 1, 17 and 64 lanes, with duplicate sources folded
// onto their first lane: every lane's bytes equal its solo BfsProgram answer
// and its digest equals ValueBytesFingerprint of those bytes. A lane left out
// of `wanted` is still digested, but its bytes are not written.
TEST(MsBfsTest, DemuxLanesMatchesSoloBfsAndDigests) {
  const Graph g = Graph::FromEdges(GenerateRmat(9, 8, 4), false);
  for (const size_t distinct : {1u, 17u, 64u}) {
    std::vector<VertexId> sources = DistinctRandomSources(g, distinct, distinct);
    ASSERT_EQ(sources.size(), distinct);
    for (size_t i = 0; i < std::min<size_t>(distinct, 5); ++i) {
      sources.push_back(sources[i]);  // duplicates share the first lane
    }
    const MsBfsRunResult ms = RunMsBfs(g, sources, MakeK40(), TestOptions());
    ASSERT_TRUE(ms.run.stats.ok());
    ASSERT_EQ(ms.state.lanes(), distinct);
    const MsBfsLaneAnswers all = DemuxLanes(ms.state, ms.state.full_mask);
    const uint64_t odd_lanes = ms.state.full_mask & 0xAAAAAAAAAAAAAAAAull;
    const MsBfsLaneAnswers odd = DemuxLanes(ms.state, odd_lanes);
    ASSERT_EQ(all.digests.size(), distinct);
    ASSERT_EQ(all.bytes.size(), distinct);
    for (const VertexId s : sources) {
      const uint32_t lane = ms.state.LaneOf(s);
      const std::vector<uint8_t> expected =
          Bytes(RunBfs(g, s, MakeK40(), TestOptions()).values);
      EXPECT_EQ(all.bytes[lane], expected)
          << distinct << " lanes, source " << s << " lane " << lane;
      EXPECT_EQ(all.digests[lane],
                ValueBytesFingerprint(expected.data(), expected.size()))
          << distinct << " lanes, lane " << lane;
      EXPECT_EQ(odd.digests[lane], all.digests[lane]) << "lane " << lane;
      if ((odd_lanes >> lane) & 1u) {
        EXPECT_EQ(odd.bytes[lane], expected) << "lane " << lane;
      } else {
        EXPECT_TRUE(odd.bytes[lane].empty()) << "lane " << lane;
      }
    }
  }
}

// A batch refused for memory never reaches InitialFrontier, so its level
// table is never sized. Demuxing that state, fresh or reused after a
// finished batch, reads every lane as unreached and nothing past the table.
TEST(MsBfsTest, OomBatchDemuxesAsUnreached) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 6), false);
  const std::vector<VertexId> sources = DistinctRandomSources(g, 5, 9);
  const std::vector<uint32_t> unreached(g.vertex_count(), kInfinity);
  const std::vector<uint8_t> expected = Bytes(unreached);
  EngineOptions tiny = TestOptions();
  tiny.memory_budget_bytes = 1024;

  MsBfsState state;
  MsBfsProgram program;
  program.state = &state;
  program.graph = &g;
  for (const bool reused : {false, true}) {
    if (reused) {
      MsBfsInit(&state, sources, g.vertex_count());
      Engine<MsBfsProgram> engine(g, MakeK40(), TestOptions());
      ASSERT_TRUE(engine.Run(program).stats.ok());
      ASSERT_EQ(state.levels.size(), g.vertex_count() * sources.size());
    }
    MsBfsInit(&state, sources, g.vertex_count());
    Engine<MsBfsProgram> engine(g, MakeK40(), tiny);
    const RunResult<uint64_t> run = engine.Run(program);
    ASSERT_TRUE(run.stats.oom);
    ASSERT_FALSE(run.stats.ok());
    const MsBfsLaneAnswers answers = DemuxLanes(state, state.full_mask);
    ASSERT_EQ(answers.digests.size(), sources.size());
    for (uint32_t lane = 0; lane < state.lanes(); ++lane) {
      EXPECT_EQ(answers.bytes[lane], expected)
          << "reused " << reused << " lane " << lane;
      EXPECT_EQ(answers.digests[lane],
                ValueBytesFingerprint(expected.data(), expected.size()))
          << "reused " << reused << " lane " << lane;
    }
  }
}

// --- Malformed MS-BFS scheduler state. The program-state section is
// [uint32 lanes][uint64 count][count x uint32 levels], with count = |V| x
// lanes. Each case below breaks one rule, keeps the rest of the section
// consistent, re-seals the CRC, and must fault the resume before anything
// is restored.

Checkpoint MidRunMsBfsSnapshot(const Graph& g,
                               const std::vector<VertexId>& sources) {
  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  MsBfsState state;
  MsBfsInit(&state, sources, g.vertex_count());
  MsBfsProgram program;
  program.state = &state;
  program.graph = &g;
  Engine<MsBfsProgram> engine(g, MakeK40(), TestOptions());
  EXPECT_TRUE(engine.Run(program, writer).stats.ok());
  EXPECT_GE(snaps.size(), 3u);
  return snaps.at(snaps.size() / 2);
}

MsBfsRunResult ResumeMsBfs(const Graph& g, const std::vector<VertexId>& sources,
                           const Checkpoint& snap) {
  MsBfsRunResult out;
  MsBfsInit(&out.state, sources, g.vertex_count());
  MsBfsProgram program;
  program.state = &out.state;
  program.graph = &g;
  RunControl resume;
  resume.resume = &snap;
  Engine<MsBfsProgram> engine(g, MakeK40(), TestOptions());
  out.run = engine.Run(program, resume);
  return out;
}

std::vector<uint8_t>* ProgramStateBytes(Checkpoint* cp) {
  for (CheckpointSection& section : cp->sections()) {
    if (section.id ==
        static_cast<uint32_t>(CheckpointSectionId::kProgramState)) {
      return &section.bytes;
    }
  }
  return nullptr;
}

constexpr size_t kLanesOffset = 0;
constexpr size_t kCountOffset = sizeof(uint32_t);
constexpr size_t kLevelsOffset = sizeof(uint32_t) + sizeof(uint64_t);

template <typename T>
void Store(std::vector<uint8_t>& bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

TEST(MsBfsTest, MalformedSchedulerStateFaultsResume) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 5), false);
  const std::vector<VertexId> sources = DistinctRandomSources(g, 17, 13);
  const uint64_t n = g.vertex_count();
  const uint64_t lanes = sources.size();
  const Checkpoint snap = MidRunMsBfsSnapshot(g, sources);
  {
    // The untouched snapshot resumes to the uninterrupted answer.
    const MsBfsRunResult clean = RunMsBfs(g, sources, MakeK40(), TestOptions());
    const MsBfsRunResult resumed = ResumeMsBfs(g, sources, snap);
    EXPECT_EQ(resumed.run.stats.outcome, RunOutcome::kResumed);
    EXPECT_EQ(resumed.state.levels, clean.state.levels);
    const CheckpointSection* state =
        snap.Find(CheckpointSectionId::kProgramState);
    ASSERT_NE(state, nullptr);
    ASSERT_EQ(state->bytes.size(),
              kLevelsOffset + n * lanes * sizeof(uint32_t));
  }
  struct Case {
    const char* name;
    void (*mangle)(std::vector<uint8_t>&, uint64_t n, uint64_t lanes);
  };
  const Case cases[] = {
      {"truncated level bytes",
       [](std::vector<uint8_t>& b, uint64_t, uint64_t) {
         b.resize(b.size() - sizeof(uint32_t));
       }},
      {"lane count unlike the engine's",
       [](std::vector<uint8_t>& b, uint64_t n, uint64_t lanes) {
         // Self-consistent for lanes - 1: only the lane count is wrong.
         Store<uint32_t>(b, kLanesOffset, static_cast<uint32_t>(lanes - 1));
         Store<uint64_t>(b, kCountOffset, n * (lanes - 1));
         b.resize(kLevelsOffset + n * (lanes - 1) * sizeof(uint32_t));
       }},
      {"count other than V x lanes",
       [](std::vector<uint8_t>& b, uint64_t n, uint64_t lanes) {
         // Exactly `count` levels follow: only the count's value is wrong.
         Store<uint64_t>(b, kCountOffset, n * lanes - 1);
         b.resize(b.size() - sizeof(uint32_t));
       }},
      {"one trailing byte",
       [](std::vector<uint8_t>& b, uint64_t, uint64_t) { b.push_back(0); }},
  };
  for (const Case& c : cases) {
    Checkpoint bad = snap;
    std::vector<uint8_t>* state = ProgramStateBytes(&bad);
    ASSERT_NE(state, nullptr);
    c.mangle(*state, n, lanes);
    bad.Seal();
    ASSERT_TRUE(bad.Validate(nullptr)) << c.name;
    const MsBfsRunResult r = ResumeMsBfs(g, sources, bad);
    EXPECT_EQ(r.run.stats.outcome, RunOutcome::kFaulted) << c.name;
    EXPECT_EQ(r.run.stats.resumes, 0u) << c.name;
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
