// Cooperative run control: cancellation, deadlines, checkpoint cadence,
// resume source, and fault arming — everything a caller threads into
// Engine::Run beyond the program itself. All checks are cooperative and land
// at iteration boundaries (plus a poll every kCancelPollSlots records inside
// the push drain), so a cancelled run always stops at a state the checkpoint
// layer could have captured.
#ifndef SIMDX_CORE_CONTROL_H_
#define SIMDX_CORE_CONTROL_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace simdx {

class Checkpoint;
class FaultRegistry;

// Sharable cancellation flag. Cancel() may be called from any thread; the
// engine polls with relaxed loads (a late observation only delays the stop
// by one poll interval, never corrupts state).
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

struct RunControl {
  // Polled at iteration boundaries and every kCancelPollSlots records in the
  // push drain.
  CancelToken* cancel = nullptr;

  // Wall-clock budget relative to Run entry; 0 = none. Exceeding it yields
  // RunOutcome::kDeadlineExceeded at the next poll.
  double time_budget_ms = 0.0;

  // Write a checkpoint every N iterations (0 = never). Checkpoints are
  // handed to `on_checkpoint` already sealed, as an rvalue the engine never
  // touches again: a sink that keeps the snapshot may move it instead of
  // copying it, and a sink taking `const Checkpoint&` still binds. The sink
  // owns persistence and reports it: returning false means the snapshot
  // could not be persisted (disk full, closed pipe, ...) and ends the run
  // with RunOutcome::kCheckpointSinkFailed — a caller asking for durability
  // and not getting it must be able to tell that apart from a clean run.
  uint32_t checkpoint_every = 0;
  std::function<bool(Checkpoint&&)> on_checkpoint;

  // When non-null, Run restores this snapshot and continues from its
  // iteration instead of starting fresh. An invalid or incompatible
  // checkpoint yields RunOutcome::kFaulted without touching UB.
  const Checkpoint* resume = nullptr;

  // Armed fault registry (nullptr = no faults; the hot path sees only a
  // null-pointer branch).
  FaultRegistry* faults = nullptr;
};

}  // namespace simdx

#endif  // SIMDX_CORE_CONTROL_H_
