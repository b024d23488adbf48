// Run outcome: algorithm output plus the execution telemetry every bench and
// test consumes (iteration count, filter pattern, cost counters, simulated
// time, memory verdict).
#ifndef SIMDX_CORE_RESULT_H_
#define SIMDX_CORE_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simt/cost_model.h"

namespace simdx {

// How a run ended. Anything other than kCompleted/kResumed means the values
// are a partial state — usable for checkpointing but not an answer.
enum class RunOutcome : uint8_t {
  kCompleted = 0,       // ran to convergence (or max_iterations) from scratch
  kResumed = 1,         // completed after restoring from a checkpoint
  kCancelled = 2,       // CancelToken observed set
  kDeadlineExceeded = 3,  // RunControl::time_budget_ms exhausted
  kFaulted = 4,         // injected fault fired, or a resume source was invalid
  // The caller-owned checkpoint sink reported a persistence failure (its
  // on_checkpoint returned false). Distinct from kFaulted: the engine and its
  // state are healthy — the durability the caller asked for is not.
  kCheckpointSinkFailed = 5,
};

inline const char* ToString(RunOutcome o) {
  switch (o) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kResumed:
      return "resumed";
    case RunOutcome::kCancelled:
      return "cancelled";
    case RunOutcome::kDeadlineExceeded:
      return "deadline-exceeded";
    case RunOutcome::kFaulted:
      return "faulted";
    case RunOutcome::kCheckpointSinkFailed:
      return "checkpoint-sink-failed";
  }
  return "?";
}

// One transition of the query service's one-rung overload ladder
// (ServiceStats::ladder): `iteration` carries the rung after the
// transition (1 = strict deadline admission, 0 = stepped down), `action`
// names it.
struct DowngradeEvent {
  uint32_t iteration = 0;
  std::string action;
};

struct IterationLog {
  uint32_t iteration = 0;
  uint64_t frontier_size = 0;
  uint64_t edges_processed = 0;
  char filter = '-';     // 'O' online, 'B' ballot, '=' reused frontier
  char direction = '-';  // 'p' push, 'P' pull
  double ms = 0.0;
};

// Telemetry common to every engine (SIMD-X and baselines).
struct RunStats {
  uint32_t iterations = 0;
  bool oom = false;          // refused to run: exceeds the device memory budget
  bool failed = false;       // policy failure (online-only bin overflow)
  bool converged = true;     // false if max_iterations was hit
  uint64_t total_active = 0;
  uint64_t total_edges_processed = 0;
  // Accounting contract the counters were recorded under (see cost_model.h):
  // kPerDestination iff the run pre-combined its push replay. Depends only on
  // options + program capability, never on host_threads.
  StatsContract contract = StatsContract::kPerRecord;
  // Push records buffered across the run: one per frontier out-edge of
  // every push iteration. Deterministic for any host_threads, but kept out
  // of the bench StatsFingerprint with the rest of the host-side telemetry.
  uint64_t push_records_buffered = 0;
  CostCounters counters;
  SimTime time;
  // The scale-invariant part of `time`: kernel-launch, barrier and
  // synchronization overheads that do NOT grow with graph size. Benches use
  // it to project measurements from the 1/1000-scale presets back to the
  // paper's scale ((time.ms - serial_ms) * scale + serial_ms).
  double serial_ms = 0.0;
  std::string filter_pattern;     // one char per iteration
  std::string direction_pattern;  // one char per iteration
  size_t device_bytes_needed = 0;
  std::vector<IterationLog> iteration_logs;

  // --- Control-plane accounting (host-side; NEVER part of the bench
  // StatsFingerprint — a resumed run must fingerprint-match an uninterrupted
  // one, and these fields are exactly what differs between the two).
  RunOutcome outcome = RunOutcome::kCompleted;
  uint32_t attempts = 1;            // RobustRun: runs launched (1 = no retry)
  uint32_t resumes = 0;             // successful checkpoint restores
  uint32_t resume_iteration = 0;    // iteration of the latest restore
  uint32_t checkpoints_written = 0;

  bool ok() const {
    return !oom && !failed &&
           (outcome == RunOutcome::kCompleted ||
            outcome == RunOutcome::kResumed);
  }
};

template <typename Value>
struct RunResult {
  std::vector<Value> values;  // final metadata, indexed by vertex id
  RunStats stats;
};

}  // namespace simdx

#endif  // SIMDX_CORE_RESULT_H_
