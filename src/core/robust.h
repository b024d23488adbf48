// RobustRun: bounded-retry driver over Engine::Run — checkpoint every N
// iterations, and when a run dies to an injected (or, one day, real) fault,
// resume from the latest VALID checkpoint instead of starting over. The
// retry loop only re-runs on kFaulted: cancellation and deadlines are
// verdicts, not failures. Attempt/recovery accounting lands in RunStats.
//
// Correctness contract (pinned by tests/integration/resume_determinism_test):
// a run killed at ANY iteration and resumed through this driver produces a
// StatsFingerprint bit-identical to the uninterrupted run, for every swept
// algorithm, host thread count and stats contract.
#ifndef SIMDX_CORE_ROBUST_H_
#define SIMDX_CORE_ROBUST_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/control.h"
#include "core/engine.h"
#include "core/fault.h"

namespace simdx {

struct RobustRunOptions {
  uint32_t checkpoint_every = 1;  // iterations between snapshots (0 = never)
  uint32_t max_attempts = 3;      // total runs, including the first
  double backoff_ms = 0.0;        // sleep before each retry; doubles per retry
  double attempt_time_budget_ms = 0.0;  // per-attempt deadline (0 = none)
  CancelToken* cancel = nullptr;
  // Shared across attempts (one-shot faults fire once per registry), so a
  // resumed attempt sails past the iteration that killed its predecessor —
  // how a real re-execution after a crash behaves.
  FaultRegistry* faults = nullptr;
};

template <AccProgram Program>
RunResult<typename Program::Value> RobustRun(Engine<Program>& engine,
                                             const Program& program,
                                             const RobustRunOptions& opts) {
  Checkpoint latest;
  bool have_checkpoint = false;
  const uint32_t max_attempts = std::max(1u, opts.max_attempts);
  RunResult<typename Program::Value> result;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && opts.backoff_ms > 0.0) {
      const double sleep_ms = opts.backoff_ms * static_cast<double>(1u << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
    }
    RunControl control;
    control.cancel = opts.cancel;
    control.time_budget_ms = opts.attempt_time_budget_ms;
    control.faults = opts.faults;
    control.checkpoint_every = opts.checkpoint_every;
    if (opts.checkpoint_every != 0) {
      // Only VALID snapshots become resume points: a torn write (corrupted
      // section) is rejected here, so the driver falls back to the previous
      // good checkpoint — never resumes from poison. The engine hands the
      // snapshot over, so a valid one is moved in, not copied.
      control.on_checkpoint = [&](Checkpoint&& cp) {
        if (cp.Validate(nullptr)) {
          latest = std::move(cp);
          have_checkpoint = true;
        }
        // An in-memory sink cannot fail; an invalid (torn-write) snapshot is
        // not a sink failure — it is simply never kept as a resume point.
        return true;
      };
    }
    const bool resuming = have_checkpoint;
    control.resume = resuming ? &latest : nullptr;
    result = engine.Run(program, control);
    result.stats.attempts = attempt + 1;
    if (result.stats.outcome != RunOutcome::kFaulted) {
      return result;
    }
    if (resuming && result.stats.resumes == 0) {
      // The restore itself was rejected (invalid/incompatible snapshot):
      // drop it and let the next attempt start from scratch.
      have_checkpoint = false;
    }
  }
  return result;
}

// Convenience overload owning the engine for one-shot calls.
template <AccProgram Program>
RunResult<typename Program::Value> RobustRun(const Graph& graph,
                                             DeviceSpec device,
                                             const EngineOptions& options,
                                             const Program& program,
                                             const RobustRunOptions& opts) {
  Engine<Program> engine(graph, std::move(device), options);
  return RobustRun(engine, program, opts);
}

}  // namespace simdx

#endif  // SIMDX_CORE_ROBUST_H_
