// Crash-at-every-iteration resume sweep — the acceptance harness for the
// checkpoint/resume layer.
//
// For every swept configuration ({BFS, SSSP, PageRank, k-Core} × host
// threads {1, 3, 8} × replay contract where the program supports both), the
// harness:
//
//   1. Runs uninterrupted and records the bench StatsFingerprint — the ONE
//      definition of "identical run" (counters, simulated time, patterns,
//      raw value bytes; control accounting excluded by design).
//   2. Re-runs with checkpointing armed at every iteration and asserts the
//      observer changed nothing (checkpoint purity).
//   3. For EVERY iteration k of the uninterrupted run, injects a one-shot
//      iteration-start fault at k and drives RobustRun (checkpoint every
//      iteration, 2 attempts): the run must die, resume from the k
//      checkpoint, finish as kResumed, and fingerprint-match the
//      uninterrupted run bit for bit.
//   4. Injects mid-stage faults (collect/replay/apply) at a push iteration:
//      same contract — a crash INSIDE a stage resumes from the iteration
//      boundary before it.
//   5. Arms a checkpoint CORRUPTION (simulated torn write) at a mid
//      iteration plus a fault one iteration later: RobustRun must reject the
//      poisoned snapshot by CRC, fall back to the previous good one, and
//      still converge to the identical fingerprint.
//
// SSSP checkpoints its delta-stepping scheduler state (pending buckets);
// k-Core pins the order-sensitive per-record contract; PageRank pins the
// floating-point value path and (with pre-combining) the kPerDestination
// contract across a resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algos/bfs.h"
#include "algos/kcore.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "bench/common.h"
#include "core/checkpoint.h"
#include "core/control.h"
#include "core/engine.h"
#include "core/fault.h"
#include "core/robust.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "simt/device.h"

namespace simdx {
namespace {

constexpr uint32_t kThreads[] = {1, 3, 8};

EngineOptions BaseOptions(uint32_t threads, bool pre_combine) {
  EngineOptions o;
  o.sim_worker_threads = 64;
  o.host_threads = threads;
  o.pre_combine_replay = pre_combine;
  return o;
}

ArmedFault At(FaultPoint point, uint32_t iteration) {
  ArmedFault f;
  f.point = point;
  f.iteration = iteration;
  return f;
}

// Steps 1-5 for one (program, graph, options) cell.
template <typename Program>
void SweepCell(const std::string& label, const Graph& g,
               const Program& program, const EngineOptions& options) {
  SCOPED_TRACE(label);

  // 1. The uninterrupted oracle.
  RunResult<typename Program::Value> plain;
  {
    Engine<Program> engine(g, MakeK40(), options);
    plain = engine.Run(program);
  }
  ASSERT_TRUE(plain.stats.ok());
  const std::string oracle = bench::StatsFingerprint(plain);
  const uint32_t iters = plain.stats.iterations;
  ASSERT_GE(iters, 2u) << "graph too small to exercise resume";

  // 2. Checkpoint purity: observing every boundary changes nothing.
  {
    RunControl control;
    control.checkpoint_every = 1;
    uint32_t valid = 0;
    control.on_checkpoint = [&](const Checkpoint& cp) {
      valid += cp.Validate(nullptr) ? 1 : 0;
      return true;
    };
    Engine<Program> engine(g, MakeK40(), options);
    const auto watched = engine.Run(program, control);
    ASSERT_TRUE(watched.stats.ok());
    EXPECT_EQ(bench::StatsFingerprint(watched), oracle);
    EXPECT_EQ(watched.stats.checkpoints_written, valid);
    EXPECT_GE(valid, iters);
  }

  // 3. Crash at EVERY iteration boundary, resume, compare.
  for (uint32_t k = 0; k <= iters; ++k) {
    FaultRegistry faults;
    faults.Arm(At(FaultPoint::kIterationStart, k));
    RobustRunOptions opts;
    opts.checkpoint_every = 1;
    opts.max_attempts = 2;
    opts.faults = &faults;
    Engine<Program> engine(g, MakeK40(), options);
    const auto r = RobustRun(engine, program, opts);
    ASSERT_TRUE(r.stats.ok()) << "crash at iteration " << k;
    EXPECT_EQ(r.stats.outcome, RunOutcome::kResumed) << "iteration " << k;
    EXPECT_EQ(r.stats.attempts, 2u) << "iteration " << k;
    EXPECT_EQ(r.stats.resumes, 1u) << "iteration " << k;
    EXPECT_EQ(r.stats.resume_iteration, k) << "iteration " << k;
    EXPECT_EQ(bench::StatsFingerprint(r), oracle) << "iteration " << k;
  }

  // 4. Mid-stage crashes at the first push iteration (the collect/replay/
  // apply hooks live in the push pipeline).
  const size_t push_at = plain.stats.direction_pattern.find('p');
  if (push_at != std::string::npos) {
    const auto k = static_cast<uint32_t>(push_at);
    for (FaultPoint point :
         {FaultPoint::kCollect, FaultPoint::kReplay, FaultPoint::kApply,
          FaultPoint::kFrontier}) {
      FaultRegistry faults;
      faults.Arm(At(point, k));
      RobustRunOptions opts;
      opts.checkpoint_every = 1;
      opts.max_attempts = 2;
      opts.faults = &faults;
      Engine<Program> engine(g, MakeK40(), options);
      const auto r = RobustRun(engine, program, opts);
      ASSERT_TRUE(r.stats.ok()) << ToString(point) << " at " << k;
      EXPECT_EQ(r.stats.outcome, RunOutcome::kResumed)
          << ToString(point) << " at " << k;
      EXPECT_EQ(bench::StatsFingerprint(r), oracle)
          << ToString(point) << " at " << k;
    }
  }

  // 5. Torn checkpoint write at iteration k, crash at k (the boundary hands
  // out the poisoned snapshot, then the fault kills the run before any newer
  // snapshot exists): RobustRun must reject the torn bytes by CRC and
  // recover from the k-1 checkpoint.
  {
    const uint32_t k = std::max(1u, iters / 2);
    FaultRegistry faults;
    ArmedFault corrupt = At(FaultPoint::kCheckpointWrite, k);
    corrupt.corrupt_section = 1;  // the values section
    corrupt.seed = 13;
    faults.Arm(corrupt);
    faults.Arm(At(FaultPoint::kIterationStart, k));
    RobustRunOptions opts;
    opts.checkpoint_every = 1;
    opts.max_attempts = 2;
    opts.faults = &faults;
    Engine<Program> engine(g, MakeK40(), options);
    const auto r = RobustRun(engine, program, opts);
    ASSERT_TRUE(r.stats.ok()) << "torn write at " << k;
    EXPECT_EQ(r.stats.outcome, RunOutcome::kResumed);
    // Resumed from the last GOOD snapshot — the one before the torn write.
    EXPECT_EQ(r.stats.resume_iteration, k - 1);
    EXPECT_EQ(bench::StatsFingerprint(r), oracle);
  }
}

TEST(ResumeDeterminismTest, BfsPerRecord) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  BfsProgram program;
  for (uint32_t threads : kThreads) {
    SweepCell("bfs/per_record/t" + std::to_string(threads), g, program,
              BaseOptions(threads, false));
  }
}

TEST(ResumeDeterminismTest, BfsPreCombined) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 3), false);
  BfsProgram program;
  for (uint32_t threads : kThreads) {
    SweepCell("bfs/pre_combine/t" + std::to_string(threads), g, program,
              BaseOptions(threads, true));
  }
}

TEST(ResumeDeterminismTest, SsspWithSchedulerState) {
  // Grid road: weighted, high diameter — the delta-stepping pending buckets
  // actually fill and refill, so the kProgramState section carries real
  // state across every crash point.
  const Graph g = Graph::FromEdges(GenerateGridRoad(16, 6, 7), false);
  SsspProgram program;
  for (uint32_t threads : kThreads) {
    SweepCell("sssp/per_record/t" + std::to_string(threads), g, program,
              BaseOptions(threads, false));
  }
}

TEST(ResumeDeterminismTest, PageRankPerRecord) {
  const Graph g = Graph::FromEdges(GenerateRmat(6, 8, 5), false);
  PageRankProgram program;
  program.graph = &g;
  program.epsilon = 1e-4;
  for (uint32_t threads : kThreads) {
    SweepCell("pagerank/per_record/t" + std::to_string(threads), g, program,
              BaseOptions(threads, false));
  }
}

TEST(ResumeDeterminismTest, PageRankPreCombined) {
  const Graph g = Graph::FromEdges(GenerateRmat(6, 8, 5), false);
  PageRankProgram program;
  program.graph = &g;
  program.epsilon = 1e-4;
  for (uint32_t threads : kThreads) {
    SweepCell("pagerank/pre_combine/t" + std::to_string(threads), g, program,
              BaseOptions(threads, true));
  }
}

TEST(ResumeDeterminismTest, KCoreOrderSensitive) {
  const Graph g = Graph::FromEdges(GenerateRmat(7, 8, 9), false);
  KCoreProgram program;
  program.graph = &g;
  // Half the vertices sit below degree 16 on this graph, so the peel
  // cascades over several iterations (k=4 would converge in one — the whole
  // graph is already a 4-core).
  program.k = 16;
  for (uint32_t threads : kThreads) {
    SweepCell("kcore/per_record/t" + std::to_string(threads), g, program,
              BaseOptions(threads, false));
  }
}

}  // namespace
}  // namespace simdx
