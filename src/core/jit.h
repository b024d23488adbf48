// Just-In-Time filter selection (Section 4, Figure 7).
//
// The controller starts every run on the online filter. When a thread bin
// overflows, the iteration's bins are discarded and the ballot filter
// regenerates the frontier; while in ballot mode, a shadow online filter
// keeps recording (capped at the same threshold, "not on the critical path",
// Figure 9(b)) so the controller can switch back the moment the update
// volume fits again. Each frontier build returns the filter it used; the
// engine logs that char per iteration (RunStats::filter_pattern) — that log
// IS Figure 8.
#ifndef SIMDX_CORE_JIT_H_
#define SIMDX_CORE_JIT_H_

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

  // Finalizes the iteration: fills `out` (cleared first) with the next
  // frontier, reusing the caller's buffer and this controller's scan scratch
  // across iterations, and returns the filter that produced it — 'O' online
  // bins, 'B' ballot scan, 'A' batch filter (unbounded bins, Gunrock style).
  // `active` is the scan predicate Active(curr[v], prev[v]).
  char BuildNextFrontierInto(VertexId vertex_count, const ActivePredicate& active,
                             CostCounters& counters, std::vector<VertexId>& out);

  // True when FilterPolicy::kOnlineOnly hit an overflow: activations were
  // dropped, the traversal is incomplete, the run must be reported failed
  // (the "online filter alone cannot work for many graphs" rows of
  // Figure 12). The engine ends the run at that iteration, so it is false at
  // every iteration boundary and never enters a checkpoint.
  bool failed() const { return failed_; }

  // Starts a run: empties the bins (a run broken off mid-iteration leaves
  // activations in them) and clears failed(), keeping every allocation — the
  // engine owns one controller and resets it at the top of each Run. The
  // bins are dead at iteration boundaries (emptied at the end of every
  // frontier build), so a resumed run needs nothing else.
  void Reset();

 private:
  FilterPolicy policy_;
  ThreadBins bins_;
  ThreadPool* pool_;
  uint32_t host_threads_;
  BallotScratch scan_scratch_;
  bool failed_ = false;
};

}  // namespace simdx

#endif  // SIMDX_CORE_JIT_H_
