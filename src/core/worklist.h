// Degree-classified work lists (paper Figure 7, step II).
//
// The frontier is split by out-degree into small/medium/large lists, mapped
// to the Thread (1 lane), Warp (32 lanes) and CTA (256 lanes) kernels. This
// is the workload-balancing half of JIT task management; the filters in
// filters.h are the task-management half.
#ifndef SIMDX_CORE_WORKLIST_H_
#define SIMDX_CORE_WORKLIST_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace simdx {

enum class KernelClass : uint8_t { kThread, kWarp, kCta };

// A borrowed contiguous slice of one kernel class's work list — the unit the
// parallel push phase chunks over. Keeps the engine's collect loop uniform
// across the three classified lists and the raw (unclassified) frontier.
struct WorkListView {
  const VertexId* data = nullptr;
  size_t size = 0;
  KernelClass klass = KernelClass::kThread;

  bool empty() const { return size == 0; }
  VertexId operator[](size_t i) const { return data[i]; }
};

inline WorkListView ViewOf(const std::vector<VertexId>& list, KernelClass klass) {
  return WorkListView{list.data(), list.size(), klass};
}

struct WorkLists {
  std::vector<VertexId> small;   // degree < small_degree_limit  -> Thread
  std::vector<VertexId> medium;  // degree < medium_degree_limit -> Warp
  std::vector<VertexId> large;   // otherwise                    -> CTA

  uint64_t TotalSize() const {
    return small.size() + medium.size() + large.size();
  }
  bool Empty() const { return TotalSize() == 0; }
  void Clear() {
    small.clear();
    medium.clear();
    large.clear();
  }

  // The lists in push execution order (Thread, Warp, CTA) as borrowed views;
  // valid until the next Clear()/Classify.
  std::array<WorkListView, 3> Views() const {
    return {ViewOf(small, KernelClass::kThread), ViewOf(medium, KernelClass::kWarp),
            ViewOf(large, KernelClass::kCta)};
  }
};

KernelClass ClassifyDegree(uint32_t degree, uint32_t small_degree_limit,
                           uint32_t medium_degree_limit);

// Reusable, parallel frontier classifier. One pass over the frontier reads
// each vertex's degree exactly once and produces BOTH the degree sum the
// direction heuristic needs (IterationInfo::frontier_out_edges) and the
// Thread/Warp/CTA lists — the engine previously walked the frontier twice
// for this. Per-chunk partial lists are merged in chunk order, so `result()`
// preserves frontier order exactly like the sequential loop; all buffers are
// owned here and reused across iterations (no per-iteration allocation once
// warm).
class FrontierClassifier {
 public:
  // Classifies into the internal lists and returns the frontier's total
  // out-edge count. `pool` may be null (serial).
  uint64_t Classify(const std::vector<VertexId>& frontier, const Graph& g,
                    uint32_t small_degree_limit, uint32_t medium_degree_limit,
                    ThreadPool* pool, uint32_t threads);

  // Degree sum only (classification disabled): same parallel walk, no lists.
  uint64_t OutEdgeSum(const std::vector<VertexId>& frontier, const Graph& g,
                      ThreadPool* pool, uint32_t threads);

  const WorkLists& result() const { return lists_; }

 private:
  WorkLists lists_;
  std::vector<WorkLists> partial_;       // per-chunk lists, capacity reused
  std::vector<uint64_t> partial_edges_;  // per-chunk degree sums
};

// Per-thread bounded bins used by the online filter (paper Figure 6(c)).
// `Record` returns false — and latches `overflowed()` — once the owning bin
// is full; the caller decides whether that aborts the policy (online-only)
// or triggers the ballot filter (JIT).
class ThreadBins {
 public:
  ThreadBins(uint32_t num_threads, uint32_t capacity_per_bin);

  bool Record(uint32_t thread_id, VertexId v);
  bool overflowed() const { return overflowed_; }
  uint64_t total_recorded() const { return total_recorded_; }
  uint32_t num_threads() const { return static_cast<uint32_t>(bins_.size()); }

  // The prefix-scan concatenation step (Figure 4(b) line 20-21): bins joined
  // in thread order into a caller-owned buffer (cleared first), so the hot
  // loop reuses one frontier allocation across iterations. The result is
  // neither sorted nor duplicate-free — the documented weakness of the
  // online filter.
  void ConcatenateInto(std::vector<VertexId>& out) const;

  void Reset();

 private:
  std::vector<std::vector<VertexId>> bins_;
  uint32_t capacity_per_bin_;
  uint64_t total_recorded_ = 0;
  bool overflowed_ = false;
};

}  // namespace simdx

#endif  // SIMDX_CORE_WORKLIST_H_
