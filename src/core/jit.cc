#include "core/jit.h"

#include <limits>

namespace simdx {

JitController::JitController(FilterPolicy policy, uint32_t worker_threads,
                             uint32_t overflow_threshold, ThreadPool* pool,
                             uint32_t host_threads)
    : policy_(policy),
      // The batch filter has no bounded-bin concept: per-thread outputs are
      // sized for the worst case, so bins never overflow (they OOM instead —
      // accounted in the engine's memory footprint).
      bins_(worker_threads, policy == FilterPolicy::kBatch
                                ? std::numeric_limits<uint32_t>::max()
                                : overflow_threshold),
      pool_(pool),
      host_threads_(host_threads) {}

void JitController::Reset() {
  bins_.Reset();
  failed_ = false;
}

void JitController::RecordActivation(uint32_t worker, VertexId v,
                                     CostCounters& counters) {
  if (policy_ == FilterPolicy::kBallotOnly) {
    return;  // pure ballot never touches bins
  }
  // One scattered word into the thread-private bin. After overflow the bin
  // rejects writes; recording continues to be attempted (and charged) only
  // until the bin is full, which is what keeps the shadow filter off the
  // critical path.
  if (bins_.Record(worker, v)) {
    counters.scattered_words += 1;
  }
}

char JitController::BuildNextFrontierInto(VertexId vertex_count,
                                          const ActivePredicate& active,
                                          CostCounters& counters,
                                          std::vector<VertexId>& out) {
  const bool overflowed = bins_.overflowed();

  const bool use_ballot =
      policy_ == FilterPolicy::kBallotOnly ||
      (policy_ == FilterPolicy::kJit && overflowed);

  char filter = 'B';
  if (use_ballot) {
    BallotFilterScanInto(vertex_count, active, counters, out, scan_scratch_,
                         pool_, host_threads_);
  } else {
    if (policy_ == FilterPolicy::kOnlineOnly && overflowed) {
      // Activations were dropped on the floor; results are not trustworthy.
      failed_ = true;
    }
    bins_.ConcatenateInto(out);
    // Prefix-scan concatenation of the bins: read + write each entry once.
    counters.coalesced_words += 2ull * out.size();
    filter = policy_ == FilterPolicy::kBatch ? 'A' : 'O';
  }
  bins_.Reset();
  return filter;
}

}  // namespace simdx
