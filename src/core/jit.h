// Just-In-Time filter selection (Section 4, Figure 7).
//
// The controller starts every run on the online filter. When a thread bin
// overflows, the iteration's bins are discarded and the ballot filter
// regenerates the frontier; while in ballot mode, a shadow online filter
// keeps recording (capped at the same threshold, "not on the critical path",
// Figure 9(b)) so the controller can switch back the moment the update
// volume fits again. The per-iteration choice is logged — that log IS
// Figure 8.
#ifndef SIMDX_CORE_JIT_H_
#define SIMDX_CORE_JIT_H_

#include <string>
#include <vector>

#include "core/filters.h"
#include "core/options.h"
#include "core/parallel.h"
#include "core/worklist.h"
#include "graph/types.h"
#include "simt/cost_model.h"

namespace simdx {

class JitController {
 public:
  // `pool`/`host_threads` drive the host-parallel ballot scan; null / 1
  // selects the sequential scan (statistics are identical either way).
  JitController(FilterPolicy policy, uint32_t worker_threads,
                uint32_t overflow_threshold, ThreadPool* pool = nullptr,
                uint32_t host_threads = 1);

  // Called by the engine when vertex `v` BECOMES active (first improving
  // update this iteration), from simulated worker `worker`.
  void RecordActivation(uint32_t worker, VertexId v, CostCounters& counters);

  // Finalizes the iteration: returns the next frontier and appends one
  // character to pattern() — 'O' when the bins produced it, 'B' when a
  // ballot scan did. `active` is the scan predicate Active(curr[v], prev[v]).
  std::vector<VertexId> BuildNextFrontier(VertexId vertex_count,
                                          const ActivePredicate& active,
                                          CostCounters& counters);

  // Allocation-free form: fills `out` (cleared first), reusing the caller's
  // buffer and this controller's scan scratch across iterations.
  void BuildNextFrontierInto(VertexId vertex_count, const ActivePredicate& active,
                             CostCounters& counters, std::vector<VertexId>& out);

  // True when FilterPolicy::kOnlineOnly hit an overflow: activations were
  // dropped, the traversal is incomplete, the run must be reported failed
  // (the "online filter alone cannot work for many graphs" rows of
  // Figure 12).
  bool failed() const { return failed_; }

  // One char per iteration, in order: 'O' online bins, 'B' ballot scan,
  // 'A' batch filter (unbounded bins, Gunrock style).
  const std::string& pattern() const { return pattern_; }

  uint32_t ballot_iterations() const { return ballot_iterations_; }
  uint32_t online_iterations() const { return online_iterations_; }

  // Checkpoint restore: the bins are dead at iteration boundaries (Reset at
  // the end of every BuildNextFrontierInto), so the controller's only
  // loop-carried state is this history.
  void RestoreHistory(std::string pattern, uint32_t ballot_iterations,
                      uint32_t online_iterations, bool failed) {
    pattern_ = std::move(pattern);
    ballot_iterations_ = ballot_iterations;
    online_iterations_ = online_iterations;
    failed_ = failed;
  }

 private:
  FilterPolicy policy_;
  ThreadBins bins_;
  ThreadPool* pool_;
  uint32_t host_threads_;
  BallotScratch scan_scratch_;
  bool failed_ = false;
  std::string pattern_;
  uint32_t ballot_iterations_ = 0;
  uint32_t online_iterations_ = 0;
};

}  // namespace simdx

#endif  // SIMDX_CORE_JIT_H_
