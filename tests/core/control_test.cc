// Engine control-plane tests: cancellation, deadlines, checkpoint cadence
// and purity, fault arming, RobustRun retries, and the
// resume path's rejection of corrupted/incompatible snapshots. The
// exhaustive crash-at-every-iteration sweep lives in
// tests/integration/resume_determinism_test; this file pins the individual
// control-plane behaviors on small fixed graphs, plus the prev == curr
// iteration-boundary invariant that every checkpoint write checks and the
// sparse frontier commit rests on.
#include "core/control.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "algos/bfs.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "algos/ppr.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "bench/common.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/fault.h"
#include "core/robust.h"
#include "graph/generators.h"
#include "simt/device.h"

namespace simdx {
namespace {

EngineOptions DefaultOptions() {
  EngineOptions o;
  o.sim_worker_threads = 64;  // small graphs in these tests
  return o;
}

Graph ChainGraph() { return Graph::FromEdges(GenerateChain(12), false); }

RunResult<uint32_t> PlainBfs(const Graph& g, const EngineOptions& o) {
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), o);
  return engine.Run(program);
}

TEST(ControlTest, PreCancelledTokenStopsAtIterationZero) {
  const Graph g = ChainGraph();
  CancelToken cancel;
  cancel.Cancel();
  RunControl control;
  control.cancel = &cancel;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = engine.Run(program, control);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  EXPECT_FALSE(r.stats.ok());
  EXPECT_EQ(r.stats.iterations, 0u);
  EXPECT_FALSE(r.stats.converged);
  // The values buffer is still handed back: it is the checkpointable state.
  EXPECT_EQ(r.values.size(), g.vertex_count());
}

TEST(ControlTest, MidRunCancelStopsAtNextIterationBoundary) {
  const Graph g = ChainGraph();
  CancelToken cancel;
  RunControl control;
  control.cancel = &cancel;
  control.checkpoint_every = 1;
  control.on_checkpoint = [&](const Checkpoint& cp) {
    if (cp.header.iteration == 3) {
      cancel.Cancel();
    }
    return true;
  };
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = engine.Run(program, control);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled);
  // Cancelled inside iteration 3's boundary callback. The drain's
  // cooperative per-chunk poll observes it during iteration 3's own body and
  // discards that iteration's partial work, so the run ends at exactly the
  // state the iteration-3 checkpoint captured — never a half-applied
  // iteration.
  EXPECT_EQ(r.stats.iterations, 3u);
}

// BfsProgram whose push Apply raises `cancel` at every record for a funnel
// hub (ids 1..hubs) and counts those records.
struct CancelAtHubBfs : BfsProgram {
  CancelToken* cancel = nullptr;
  uint32_t hubs = 0;
  std::atomic<uint64_t>* hub_applies = nullptr;

  Value Apply(VertexId v, const Value& combined, const Value& old,
              Direction dir) const {
    if (dir == Direction::kPush && v >= 1 && v <= hubs) {
      hub_applies->fetch_add(1, std::memory_order_relaxed);
      cancel->Cancel();
    }
    return BfsProgram::Apply(v, combined, old, dir);
  }
};

TEST(ControlTest, CancelStopsTheDrainAtItsNextPollAtAnyThreadCount) {
  // 30,000 spokes x 3 hubs: one push iteration drains 90,000 spoke->hub
  // records. The first of them raises the cancel, and the drain's next
  // poll (at slot kCancelPollSlots) stops it, at every thread count.
  const uint32_t kHubs = 3;
  const Graph g =
      Graph::FromEdges(GenerateFunnel(30000, kHubs), /*directed=*/true);
  for (uint32_t threads : {1u, 4u}) {
    CancelToken cancel;
    RunControl control;
    control.cancel = &cancel;
    std::atomic<uint64_t> hub_applies{0};
    CancelAtHubBfs program;
    program.cancel = &cancel;
    program.hubs = kHubs;
    program.hub_applies = &hub_applies;
    EngineOptions o = DefaultOptions();
    o.host_threads = threads;
    o.force_push = true;
    Engine<CancelAtHubBfs> engine(g, MakeK40(), o);
    const auto r = engine.Run(program, control);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kCancelled) << threads;
    EXPECT_EQ(hub_applies.load(), kCancelPollSlots) << threads;
  }
}

TEST(ControlTest, TinyDeadlineYieldsDeadlineExceeded) {
  const Graph g = ChainGraph();
  RunControl control;
  control.time_budget_ms = 1e-6;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = engine.Run(program, control);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_FALSE(r.stats.ok());
  EXPECT_LT(r.stats.iterations, 12u);
}

TEST(ControlTest, CheckpointingRunIsFingerprintPureAndCountsWrites) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  const auto plain = PlainBfs(g, DefaultOptions());
  ASSERT_TRUE(plain.stats.ok());
  EXPECT_EQ(plain.stats.checkpoints_written, 0u);

  uint32_t observed = 0;
  RunControl control;
  control.checkpoint_every = 2;
  control.on_checkpoint = [&](const Checkpoint& cp) {
    ++observed;
    EXPECT_TRUE(cp.Validate(nullptr));
    EXPECT_EQ(cp.header.graph_vertices, g.vertex_count());
    return true;
  };
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto checked = engine.Run(program, control);
  ASSERT_TRUE(checked.stats.ok());
  EXPECT_EQ(checked.stats.outcome, RunOutcome::kCompleted);
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(checked.stats.checkpoints_written, observed);
  // Checkpointing must be a pure observer: identical fingerprint (which
  // excludes the control accounting by design).
  EXPECT_EQ(bench::StatsFingerprint(checked), bench::StatsFingerprint(plain));
}

TEST(ControlTest, ResumeFromMidRunCheckpointReproducesFingerprint) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  const auto plain = PlainBfs(g, DefaultOptions());
  ASSERT_TRUE(plain.stats.ok());
  ASSERT_GE(plain.stats.iterations, 3u);

  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
    ASSERT_TRUE(engine.Run(program, writer).stats.ok());
  }
  ASSERT_GE(snaps.size(), 3u);

  // Resume from EVERY snapshot (including iteration 0 and the last one
  // written) into a fresh engine: all must reproduce the fingerprint.
  for (const Checkpoint& snap : snaps) {
    RunControl resume;
    resume.resume = &snap;
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
    const auto resumed = engine.Run(program, resume);
    ASSERT_TRUE(resumed.stats.ok()) << "iteration " << snap.header.iteration;
    EXPECT_EQ(resumed.stats.outcome, RunOutcome::kResumed);
    EXPECT_EQ(resumed.stats.resumes, 1u);
    EXPECT_EQ(resumed.stats.resume_iteration, snap.header.iteration);
    EXPECT_EQ(bench::StatsFingerprint(resumed), bench::StatsFingerprint(plain))
        << "iteration " << snap.header.iteration;
    EXPECT_EQ(resumed.values, plain.values);
  }
}

TEST(ControlTest, ResumeAcrossHostThreadCountsReproducesFingerprint) {
  // The digest excludes host_threads on purpose: a snapshot from a 1-thread
  // run must restore into a 3-thread engine and vice versa.
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 5), false);
  EngineOptions serial_opts = DefaultOptions();
  serial_opts.host_threads = 1;
  EngineOptions parallel_opts = DefaultOptions();
  parallel_opts.host_threads = 3;
  const auto plain = PlainBfs(g, serial_opts);
  ASSERT_TRUE(plain.stats.ok());

  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), serial_opts);
    ASSERT_TRUE(engine.Run(program, writer).stats.ok());
  }
  ASSERT_GE(snaps.size(), 2u);
  RunControl resume;
  resume.resume = &snaps[snaps.size() / 2];
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), parallel_opts);
  const auto resumed = engine.Run(program, resume);
  ASSERT_TRUE(resumed.stats.ok());
  EXPECT_EQ(bench::StatsFingerprint(resumed), bench::StatsFingerprint(plain));
}

TEST(ControlTest, CorruptedResumeSourceYieldsFaultedNotUb) {
  const Graph g = ChainGraph();
  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
    ASSERT_TRUE(engine.Run(program, writer).stats.ok());
  }
  ASSERT_GE(snaps.size(), 3u);
  // Corrupt every section of a mid-run snapshot in turn: all must be caught
  // by the CRC and mapped to a clean kFaulted with zero restores.
  for (uint32_t s = 0; s < snaps[2].sections().size(); ++s) {
    Checkpoint bad = snaps[2];
    CorruptCheckpointSection(&bad, s, /*seed=*/s + 1);
    RunControl resume;
    resume.resume = &bad;
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
    const auto r = engine.Run(program, resume);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted) << "section " << s;
    EXPECT_FALSE(r.stats.ok()) << "section " << s;
    EXPECT_EQ(r.stats.resumes, 0u) << "section " << s;
  }
}

TEST(ControlTest, IncompatibleResumeSourceYieldsFaulted) {
  const Graph g = ChainGraph();
  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
    ASSERT_TRUE(engine.Run(program, writer).stats.ok());
  }
  ASSERT_GE(snaps.size(), 2u);
  RunControl resume;
  resume.resume = &snaps[1];
  // A semantically different engine (digest mismatch) must refuse the
  // snapshot instead of replaying it into a diverging trajectory.
  EngineOptions other = DefaultOptions();
  other.overflow_threshold = 128;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), other);
  const auto r = engine.Run(program, resume);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(r.stats.resumes, 0u);
}

TEST(ControlTest, MidStageFaultsSurfaceAsFaulted) {
  const Graph g = ChainGraph();
  for (const char* spec : {"collect@1", "replay@1", "apply@1", "frontier@1"}) {
    FaultRegistry faults;
    ASSERT_TRUE(FaultRegistry::Parse(spec, &faults)) << spec;
    RunControl control;
    control.faults = &faults;
    EngineOptions o = DefaultOptions();
    o.force_push = true;  // the collect/replay/apply hooks live in push
    BfsProgram program;
    Engine<BfsProgram> engine(g, MakeK40(), o);
    const auto r = engine.Run(program, control);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted) << spec;
    EXPECT_FALSE(r.stats.converged) << spec;
  }
}

TEST(ControlTest, CheckpointWriteFaultYieldsFaulted) {
  const Graph g = ChainGraph();
  FaultRegistry reg;
  ASSERT_TRUE(FaultRegistry::Parse("checkpoint-write@2", &reg));
  RunControl control;
  control.faults = &reg;
  control.checkpoint_every = 1;
  uint32_t observed = 0;
  control.on_checkpoint = [&](const Checkpoint&) {
    ++observed;
    return true;
  };
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = engine.Run(program, control);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(observed, 2u);  // iterations 0 and 1 wrote; 2 failed
}

TEST(ControlTest, CheckpointSinkRefusalYieldsDistinctOutcome) {
  // The sink (not the engine) fails: on_checkpoint returns false. That must
  // surface as kCheckpointSinkFailed — distinguishable from an injected
  // write fault — and the refused write must not be counted.
  const Graph g = ChainGraph();
  uint32_t calls = 0;
  RunControl control;
  control.checkpoint_every = 1;
  control.on_checkpoint = [&](const Checkpoint&) {
    ++calls;
    return calls < 3;  // accept iterations 0 and 1, refuse iteration 2
  };
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = engine.Run(program, control);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCheckpointSinkFailed);
  EXPECT_FALSE(r.stats.ok());
  EXPECT_EQ(calls, 3u);
  // checkpoints_written counts snapshots the sink actually holds.
  EXPECT_EQ(r.stats.checkpoints_written, 2u);
  EXPECT_EQ(std::string(ToString(r.stats.outcome)), "checkpoint-sink-failed");

  // A sink refusing everything fails on the very first write — the engine
  // must not keep hammering a sink that already said no.
  Engine<BfsProgram> engine2(g, MakeK40(), DefaultOptions());
  uint32_t calls2 = 0;
  RunControl refuse_all;
  refuse_all.checkpoint_every = 1;
  refuse_all.on_checkpoint = [&](const Checkpoint&) {
    ++calls2;
    return false;
  };
  const auto r2 = engine2.Run(program, refuse_all);
  EXPECT_EQ(r2.stats.outcome, RunOutcome::kCheckpointSinkFailed);
  EXPECT_EQ(r2.stats.checkpoints_written, 0u);
  EXPECT_EQ(calls2, 1u);
}

TEST(ControlTest, ConcurrentCancelFromNonWorkerThreadThenPureRerun) {
  // Cancel raised from a thread that is NOT one of the engine's workers,
  // landing mid-drain at an arbitrary moment, across every push mode. The
  // interrupted run may end kCancelled or kCompleted (the race is real and
  // both are legal); what is pinned is that the SAME engine object then
  // reruns to a fingerprint bit-identical to an undisturbed run — a torn
  // cancellation must leave no residue in the engine's reusable scratch.
  // R-MAT scale 12: its widest push iteration carries ~40,000 records, so
  // the 3-thread modes reach the multi-chunk collect.
  const Graph g = Graph::FromEdges(GenerateRmat(12, 8, 3), false);

  // Every mode drains on the Run thread and polls there, so the cancel can
  // land mid-drain in all three; the 3-thread modes also split the collect
  // over chunks on pool workers.
  struct Mode {
    const char* name;
    uint32_t host_threads;
    bool pre_combine;
  };
  const Mode kModes[] = {
      {"serial-drain", 1, false},
      {"three-thread-collect", 3, false},
      {"pre-combined-drain", 3, true},
  };
  for (const Mode& mode : kModes) {
    EngineOptions o = DefaultOptions();
    o.host_threads = mode.host_threads;
    o.pre_combine_replay = mode.pre_combine;
    o.force_push = true;  // keep the run in the push drains under test

    BfsProgram program;
    EngineOptions profiled = o;
    profiled.profile_push_replay = true;
    Engine<BfsProgram> plain_engine(g, MakeK40(), profiled);
    const auto plain = plain_engine.Run(program);
    ASSERT_TRUE(plain.stats.ok()) << mode.name;
    uint64_t widest = 0;
    for (const PushReplayIterationSplit& it :
         plain_engine.push_profile().iterations) {
      widest = std::max(widest, it.records);
    }
    EXPECT_GE(widest, kParallelCollectMinRecords) << mode.name;

    Engine<BfsProgram> engine(g, MakeK40(), o);
    for (int trial = 0; trial < 4; ++trial) {
      CancelToken cancel;
      RunControl control;
      control.cancel = &cancel;
      std::atomic<bool> started{false};
      // The canceller: an outside (non-worker) thread firing after an
      // arbitrary sub-millisecond delay so successive trials land in
      // different stages of the run.
      std::thread canceller([&] {
        while (!started.load(std::memory_order_acquire)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50 * trial));
        cancel.Cancel();
      });
      started.store(true, std::memory_order_release);
      const auto interrupted = engine.Run(program, control);
      canceller.join();
      EXPECT_TRUE(interrupted.stats.outcome == RunOutcome::kCancelled ||
                  interrupted.stats.outcome == RunOutcome::kCompleted)
          << mode.name << " trial " << trial << ": "
          << ToString(interrupted.stats.outcome);

      // Rerun on the same engine (reused scratch buffers) with no control:
      // must be indistinguishable from the never-cancelled run.
      const auto rerun = engine.Run(program);
      ASSERT_TRUE(rerun.stats.ok()) << mode.name << " trial " << trial;
      EXPECT_EQ(bench::StatsFingerprint(rerun), bench::StatsFingerprint(plain))
          << mode.name << " trial " << trial;
      EXPECT_EQ(rerun.values, plain.values) << mode.name;
    }
  }
}

TEST(ControlTest, RobustRunRetriesFromCheckpointAndMatchesFingerprint) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  const auto plain = PlainBfs(g, DefaultOptions());
  ASSERT_TRUE(plain.stats.ok());

  FaultRegistry reg;
  ASSERT_TRUE(FaultRegistry::Parse("iteration-start@3", &reg));
  RobustRunOptions opts;
  opts.checkpoint_every = 1;
  opts.max_attempts = 2;
  opts.faults = &reg;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = RobustRun(engine, program, opts);
  ASSERT_TRUE(r.stats.ok());
  EXPECT_EQ(r.stats.outcome, RunOutcome::kResumed);
  EXPECT_EQ(r.stats.attempts, 2u);
  EXPECT_EQ(r.stats.resumes, 1u);
  EXPECT_EQ(r.stats.resume_iteration, 3u);
  EXPECT_EQ(bench::StatsFingerprint(r), bench::StatsFingerprint(plain));
  EXPECT_EQ(r.values, plain.values);
}

TEST(ControlTest, RobustRunGivesUpAfterMaxAttempts) {
  const Graph g = ChainGraph();
  FaultRegistry reg;
  // One-shot faults at consecutive iterations: attempt 1 dies at iteration 1;
  // attempt 2 resumes past it and dies at iteration 2. Out of attempts.
  ASSERT_TRUE(
      FaultRegistry::Parse("iteration-start@1,iteration-start@2", &reg));
  RobustRunOptions opts;
  opts.checkpoint_every = 1;
  opts.max_attempts = 2;
  opts.faults = &reg;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  const auto r = RobustRun(engine, program, opts);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(r.stats.attempts, 2u);
  EXPECT_FALSE(r.stats.ok());
}

TEST(ControlTest, RobustRunConvenienceOverloadCompletesWithoutFaults) {
  const Graph g = ChainGraph();
  BfsProgram program;
  RobustRunOptions opts;
  opts.checkpoint_every = 2;
  const auto r = RobustRun(g, MakeK40(), DefaultOptions(), program, opts);
  ASSERT_TRUE(r.stats.ok());
  EXPECT_EQ(r.stats.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(r.stats.attempts, 1u);
  EXPECT_EQ(r.stats.resumes, 0u);
}

TEST(ControlTest, ZeroEdgeGraphRunsAndCheckpointsCleanly) {
  // Five isolated vertices: every push iteration buffers zero records and
  // every in-degree sum is zero.
  const Graph g = Graph::FromEdges(EdgeList{}, false, /*vertex_count=*/5);
  EngineOptions o = DefaultOptions();
  o.host_threads = 3;
  BfsProgram program;
  program.source = 2;
  RunControl control;
  control.checkpoint_every = 1;
  uint32_t observed = 0;
  control.on_checkpoint = [&](const Checkpoint& cp) {
    ++observed;
    EXPECT_TRUE(cp.Validate(nullptr));
    return true;
  };
  Engine<BfsProgram> engine(g, MakeK40(), o);
  const auto r = engine.Run(program, control);
  ASSERT_TRUE(r.stats.ok());
  EXPECT_EQ(r.values[2], 0u);
  EXPECT_GE(observed, 1u);
}

TEST(ControlTest, SsspSchedulerStateSurvivesResume) {
  // Delta-stepping SSSP carries pending buckets across iterations; resume
  // must reproduce them exactly (kProgramState section).
  const Graph g = Graph::FromEdges(GenerateGridRoad(20, 8, 7), false);
  EngineOptions o = DefaultOptions();
  SsspProgram plain_prog;
  Engine<SsspProgram> plain_engine(g, MakeK40(), o);
  const auto plain = plain_engine.Run(plain_prog);
  ASSERT_TRUE(plain.stats.ok());
  ASSERT_GE(plain.stats.iterations, 4u);

  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    SsspProgram program;
    Engine<SsspProgram> engine(g, MakeK40(), o);
    ASSERT_TRUE(engine.Run(program, writer).stats.ok());
  }
  ASSERT_GE(snaps.size(), 4u);
  for (const Checkpoint& snap : snaps) {
    ASSERT_NE(snap.Find(CheckpointSectionId::kProgramState), nullptr);
    RunControl resume;
    resume.resume = &snap;
    SsspProgram program;
    Engine<SsspProgram> engine(g, MakeK40(), o);
    const auto resumed = engine.Run(program, resume);
    ASSERT_TRUE(resumed.stats.ok()) << "iteration " << snap.header.iteration;
    EXPECT_EQ(bench::StatsFingerprint(resumed), bench::StatsFingerprint(plain))
        << "iteration " << snap.header.iteration;
    EXPECT_EQ(resumed.values, plain.values);
  }
}

// Resumes SSSP on the 20x8 road grid (|V| = 160) from a real snapshot whose
// pending list is non-empty, after rewriting the first pending vertex id to
// `id` and re-sealing — the snapshot is CRC-valid, only its content lies.
RunResult<uint32_t> ResumeSsspWithFirstPendingId(VertexId id) {
  const Graph g = Graph::FromEdges(GenerateGridRoad(20, 8, 7), false);
  EXPECT_EQ(g.vertex_count(), 160u);
  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  {
    SsspProgram program;
    Engine<SsspProgram> engine(g, MakeK40(), DefaultOptions());
    EXPECT_TRUE(engine.Run(program, writer).stats.ok());
  }
  // kProgramState layout: bucket limit, pending count, then (id, distance)
  // pairs.
  constexpr size_t kCountAt = sizeof(SsspProgram::Value);
  constexpr size_t kFirstIdAt = kCountAt + sizeof(uint64_t);
  for (Checkpoint& cp : snaps) {
    for (CheckpointSection& section : cp.sections()) {
      if (section.id !=
              static_cast<uint32_t>(CheckpointSectionId::kProgramState) ||
          section.bytes.size() < kFirstIdAt + sizeof(VertexId)) {
        continue;
      }
      uint64_t count = 0;
      std::memcpy(&count, section.bytes.data() + kCountAt, sizeof(count));
      if (count == 0) {
        continue;
      }
      std::memcpy(section.bytes.data() + kFirstIdAt, &id, sizeof(id));
      cp.Seal();
      EXPECT_TRUE(cp.Validate(nullptr));
      RunControl resume;
      resume.resume = &cp;
      SsspProgram program;
      Engine<SsspProgram> engine(g, MakeK40(), DefaultOptions());
      return engine.Run(program, resume);
    }
  }
  ADD_FAILURE() << "no snapshot with a pending SSSP vertex";
  return {};
}

// A snapshot from the middle of a BFS run on `g`, checkpointed every
// iteration.
Checkpoint MidRunBfsSnapshot(const Graph& g) {
  std::vector<Checkpoint> snaps;
  RunControl writer;
  writer.checkpoint_every = 1;
  writer.on_checkpoint = [&](const Checkpoint& cp) {
    snaps.push_back(cp);
    return true;
  };
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  EXPECT_TRUE(engine.Run(program, writer).stats.ok());
  EXPECT_GE(snaps.size(), 3u);
  return snaps.at(snaps.size() / 2);
}

RunResult<uint32_t> ResumeBfs(const Graph& g, const Checkpoint& snap) {
  RunControl resume;
  resume.resume = &snap;
  BfsProgram program;
  Engine<BfsProgram> engine(g, MakeK40(), DefaultOptions());
  return engine.Run(program, resume);
}

// Resumes BFS on a 16x16 grid from a mid-run snapshot whose section `id`
// got `extra` appended and was re-sealed: CRC-valid, but longer than the
// fields it holds. The untouched snapshot resumes bit-identically; the
// extended one must be refused, not resumed.
void ExpectTrailingBytesFaultResume(CheckpointSectionId id,
                                    const std::vector<uint8_t>& extra) {
  const Graph g = Graph::FromEdges(GenerateGridRoad(16, 16, 3), false);
  const auto plain = PlainBfs(g, DefaultOptions());
  ASSERT_TRUE(plain.stats.ok());
  const Checkpoint snap = MidRunBfsSnapshot(g);
  {
    const auto resumed = ResumeBfs(g, snap);
    EXPECT_EQ(resumed.stats.outcome, RunOutcome::kResumed);
    EXPECT_EQ(bench::StatsFingerprint(resumed), bench::StatsFingerprint(plain));
    EXPECT_EQ(resumed.values, plain.values);
  }
  Checkpoint bad = snap;
  int extended = 0;
  for (CheckpointSection& section : bad.sections()) {
    if (section.id == static_cast<uint32_t>(id)) {
      section.bytes.insert(section.bytes.end(), extra.begin(), extra.end());
      ++extended;
    }
  }
  ASSERT_EQ(extended, 1);
  bad.Seal();
  ASSERT_TRUE(bad.Validate(nullptr));
  const auto r = ResumeBfs(g, bad);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(r.stats.resumes, 0u);
}

TEST(ControlTest, SnapshotWithTrailingValueBytesFaultsResume) {
  // The values section holds its count and exactly that many values, as the
  // loop, frontier and stats sections hold exactly their fields.
  ExpectTrailingBytesFaultResume(CheckpointSectionId::kValuesCurr, {0});
}

TEST(ControlTest, SnapshotWithTrailingLoopBytesFaultsResume) {
  // The loop section ends at the push records buffered so far. Version 3
  // followed that with the jit and fusion history: failed flag, ballot and
  // online counts, the filter pattern, launched flag, last direction and
  // the launch and barrier totals. Those bytes are no longer a field.
  std::vector<uint8_t> v3_tail;
  ByteWriter w(&v3_tail);
  w.Pod(static_cast<uint8_t>(0));
  w.Pod(static_cast<uint32_t>(1));
  w.Pod(static_cast<uint32_t>(2));
  w.Str("OBO");
  w.Pod(static_cast<uint8_t>(1));
  w.Pod(static_cast<uint8_t>(0));
  w.Pod(static_cast<uint64_t>(1));
  w.Pod(static_cast<uint64_t>(6));
  ExpectTrailingBytesFaultResume(CheckpointSectionId::kEngineLoop, v3_tail);
}

TEST(ControlTest, SsspPendingVertexAtVertexCountFaultsResume) {
  // One past the last vertex: must not resume and release it into the
  // frontier.
  const auto r = ResumeSsspWithFirstPendingId(160);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(r.stats.resumes, 0u);
}

TEST(ControlTest, SsspHugePendingVertexFaultsResume) {
  // Far outside the graph: must be refused before any membership array is
  // sized or indexed from it.
  const auto r = ResumeSsspWithFirstPendingId(100'000'000);
  EXPECT_EQ(r.stats.outcome, RunOutcome::kFaulted);
  EXPECT_EQ(r.stats.resumes, 0u);
}

// --- The boundary invariant: prev == curr at every iteration boundary ---
//
// A thin push iteration commits prev by copying only the vertices it could
// have written: its records' destinations and its consumed sources
// (Engine::CommitPrev). Every checkpoint is taken at a boundary, and writing
// one checks prev == curr and ends the run kFaulted when they differ, so
// checkpointing every iteration checks the invariant at each one. The 64x64
// grid keeps pushes thin (the sparse commit); R-MAT floods (wide pushes and
// pulls, the full copy).

template <typename Program>
void ExpectPrevEqualsCurrAtEveryBoundary(const Graph& g,
                                         const Program& program) {
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EngineOptions o = DefaultOptions();
    o.host_threads = threads;
    RunControl control;
    control.checkpoint_every = 1;
    // The sink keeps nothing and accepts every snapshot: the engine's own
    // write-time check is what ends a broken run, at the first boundary
    // where prev lags curr.
    control.on_checkpoint = [](Checkpoint&&) { return true; };
    Engine<Program> engine(g, MakeK40(), o);
    const auto r = engine.Run(program, control);
    EXPECT_EQ(r.stats.outcome, RunOutcome::kCompleted)
        << "prev != curr at iteration " << r.stats.iterations;
    EXPECT_GE(r.stats.checkpoints_written, r.stats.iterations);
    EXPECT_GE(r.stats.iterations, 2u);
  }
}

void ExpectInvariantForEveryProgram(const Graph& g) {
  BfsProgram bfs;
  ExpectPrevEqualsCurrAtEveryBoundary(g, bfs);
  SsspProgram sssp;
  ExpectPrevEqualsCurrAtEveryBoundary(g, sssp);
  WccProgram wcc;
  wcc.graph = &g;
  ExpectPrevEqualsCurrAtEveryBoundary(g, wcc);
  KCoreProgram kcore;
  kcore.graph = &g;
  kcore.k = 3;
  ExpectPrevEqualsCurrAtEveryBoundary(g, kcore);
  PageRankProgram pagerank;
  pagerank.graph = &g;
  ExpectPrevEqualsCurrAtEveryBoundary(g, pagerank);
  PprProgram ppr;
  ppr.graph = &g;
  ExpectPrevEqualsCurrAtEveryBoundary(g, ppr);
}

TEST(CommitInvariantTest, PrevEqualsCurrOnThinGrid) {
  ExpectInvariantForEveryProgram(
      Graph::FromEdges(GenerateGridRoad(64, 64, 5), false));
}

TEST(CommitInvariantTest, PrevEqualsCurrOnRmat) {
  ExpectInvariantForEveryProgram(
      Graph::FromEdges(GenerateRmat(12, 8, 9), false));
}

TEST(CommitInvariantTest, ConsumedSourceThatReceivesNoRecord) {
  // PPR down a directed chain: each push consumes its source, whose only
  // edge points away, so no record ever lands on it — only the commit's
  // frontier walk brings its prev up to date.
  const Graph g = Graph::FromEdges(GenerateChain(4096), /*directed=*/true);
  PprProgram ppr;
  ppr.graph = &g;
  ExpectPrevEqualsCurrAtEveryBoundary(g, ppr);
}

}  // namespace
}  // namespace simdx
