#include "core/filters.h"

#include <array>

#include "simt/warp.h"

namespace simdx {

namespace {

// One warp-aligned stretch of the scan; appends to `frontier`, charges
// `counters`. Shared verbatim by the sequential and per-chunk paths.
void BallotScanRange(VertexId range_begin, VertexId range_end,
                     const ActivePredicate& active,
                     std::vector<VertexId>& frontier, CostCounters& counters) {
  std::array<bool, kWarpSize> pred{};
  for (VertexId base = range_begin; base < range_end; base += kWarpSize) {
    const uint32_t lanes = std::min<VertexId>(kWarpSize, range_end - base);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      pred[lane] = active(base + lane);
    }
    const uint32_t mask = WarpBallot({pred.data(), lanes});
    // First lane of the warp walks the ballot and enqueues set lanes in lane
    // order — this is what makes the output sorted and duplicate-free.
    const uint32_t count = PopCount(mask);
    for (uint32_t n = 0; n < count; ++n) {
      frontier.push_back(base + NthSetLane(mask, n));
    }
    // Each lane reads curr and prev metadata for its vertex: coalesced.
    counters.coalesced_words += 2ull * lanes;
    counters.alu_ops += lanes + 1;  // predicate evaluations + the ballot
    // The emitting lane writes `count` consecutive frontier slots.
    counters.coalesced_words += count;
  }
}

}  // namespace

void BallotFilterScanInto(VertexId vertex_count, const ActivePredicate& active,
                          CostCounters& counters, std::vector<VertexId>& out,
                          BallotScratch& scratch, ThreadPool* pool,
                          uint32_t threads) {
  out.clear();
  if (pool == nullptr || threads <= 1 || vertex_count < 4 * kWarpSize) {
    BallotScanRange(0, vertex_count, active, out, counters);
    return;
  }
  // Chunks are multiples of the warp size so no warp straddles a chunk and
  // the per-warp ballots are exactly the sequential ones.
  const size_t grain = SuggestedGrain(vertex_count, threads, 4 * kWarpSize, kWarpSize);
  const uint32_t chunks = ThreadPool::NumChunks(0, vertex_count, grain);
  if (scratch.chunk_frontier.size() < chunks) {
    scratch.chunk_frontier.resize(chunks);
  }
  scratch.chunk_cost.assign(chunks, CostCounters{});
  pool->ParallelFor(0, vertex_count, grain, threads, [&](const ParallelChunk& c) {
    std::vector<VertexId>& local = scratch.chunk_frontier[c.chunk_index];
    local.clear();
    BallotScanRange(static_cast<VertexId>(c.begin), static_cast<VertexId>(c.end),
                    active, local, scratch.chunk_cost[c.chunk_index]);
  });
  // Prefix-sum compaction in chunk (= vertex id) order.
  size_t total = 0;
  for (uint32_t i = 0; i < chunks; ++i) {
    total += scratch.chunk_frontier[i].size();
  }
  out.reserve(total);
  for (uint32_t i = 0; i < chunks; ++i) {
    const auto& local = scratch.chunk_frontier[i];
    out.insert(out.end(), local.begin(), local.end());
    counters += scratch.chunk_cost[i];
  }
}

std::vector<ActiveEdge> BuildActiveEdgeList(const std::vector<VertexId>& frontier,
                                            const Graph& g, CostCounters& counters) {
  std::vector<ActiveEdge> edges;
  for (VertexId v : frontier) {
    const auto nbrs = g.out().Neighbors(v);
    const auto wts = g.out().NeighborWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      edges.push_back(ActiveEdge{v, nbrs[i], wts[i]});
    }
    // Read the adjacency run, write 3 words per expanded edge.
    counters.coalesced_words += 2 + 2ull * nbrs.size();
    counters.coalesced_words += 3ull * nbrs.size();
  }
  return edges;
}

size_t BatchFilterFootprintBytes(const Graph& g) {
  // (src, dst, weight) per potentially-active edge, double-buffered between
  // iterations — "the active list can consume up to 2*|E| memory space"
  // (Section 4).
  return static_cast<size_t>(g.edge_count()) * sizeof(ActiveEdge) * 2;
}

}  // namespace simdx
