// The task-management filters of Section 4 (Figure 6).
//
// - Ballot filter: warp-cooperative coalesced scan of the metadata array
//   using the __ballot() primitive; emits a SORTED, DUPLICATE-FREE frontier
//   at a fixed cost proportional to |V|.
// - Online filter: bounded per-thread bins filled while edges are processed
//   (ThreadBins in worklist.h); near-zero cost for small frontiers, fails on
//   overflow.
// - Batch filter: the Gunrock-style active-edge-list expansion, kept here so
//   the baseline engine and the ablation benches share one implementation.
#ifndef SIMDX_CORE_FILTERS_H_
#define SIMDX_CORE_FILTERS_H_

#include <functional>
#include <vector>

#include "core/parallel.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "simt/cost_model.h"

namespace simdx {

using ActivePredicate = std::function<bool(VertexId)>;

// Per-chunk output buffers for the parallel ballot scan, owned by the caller
// (the JIT controller) so the per-iteration scan allocates nothing once warm.
struct BallotScratch {
  std::vector<std::vector<VertexId>> chunk_frontier;
  std::vector<CostCounters> chunk_cost;
};

// Runs the warp-ballot scan over [0, vertex_count) into `out` (cleared
// first): each warp of 32 lanes loads 32 consecutive vertices' metadata
// (curr + prev, charged as coalesced reads), votes with ballot, and the
// first lane appends the set lanes in lane order. Scanning vertex blocks in
// order yields the sorted frontier. With a pool and `threads` > 1,
// warp-aligned chunks are scanned concurrently and compacted by chunk-order
// prefix offsets — the host-side equivalent of the scan + prefix-sum the GPU
// filter performs, with output (and every charged counter) bit-identical to
// the sequential scan for any thread count. `active` must then be safe for
// concurrent calls (it only reads metadata).
void BallotFilterScanInto(VertexId vertex_count, const ActivePredicate& active,
                          CostCounters& counters, std::vector<VertexId>& out,
                          BallotScratch& scratch, ThreadPool* pool,
                          uint32_t threads);

// Expands the frontier into an explicit (src, dst) active-edge list — the
// batch filter's first step (Figure 6(a) step a1). Charges the edge-list
// write traffic; the caller is responsible for the 2|E|-word worst-case
// footprint (Gunrock's OOM cause in Table 4).
struct ActiveEdge {
  VertexId src;
  VertexId dst;
  Weight weight;
};
std::vector<ActiveEdge> BuildActiveEdgeList(const std::vector<VertexId>& frontier,
                                            const Graph& g, CostCounters& counters);

// Worst-case device bytes the batch filter may need for this graph (frontier
// can cover nearly all vertices, so the edge list can reach |E| entries).
size_t BatchFilterFootprintBytes(const Graph& g);

}  // namespace simdx

#endif  // SIMDX_CORE_FILTERS_H_
