// Pull phase of Engine (member definitions; included from core/engine.h):
// every (non-skipped) vertex gathers from contributing in-neighbors,
// reading previous-iteration values (pure BSP).
//
// The gather for vertex v touches only prev (frozen for the whole
// iteration) and emits one candidate update for v, so the scan
// parallelizes over contiguous vertex ranges with zero sharing. The tail
// of the sequential loop — Apply (which may carry program side effects,
// e.g. delta-stepping's bucket parking), the curr write, and the online-
// filter record — is DEFERRED: chunks collect (v, combined) pairs, and
// after the join the engine replays them in ascending chunk (= vertex)
// order. The replay performs exactly the statements the sequential loop
// would, in the same order, so values, counters, bins and program state
// are bit-identical for any host thread count.
#ifndef SIMDX_CORE_ENGINE_PULL_H_
#define SIMDX_CORE_ENGINE_PULL_H_

#include "core/engine.h"

namespace simdx {

template <AccProgram Program>
uint64_t Engine<Program>::ProcessPull(const Program& program,
                                      VertexMeta<Value>& meta,
                                      CostCounters& cost) {
  const VertexId n = graph_.in().vertex_count();
  if (pool_ == nullptr || host_threads_ <= 1 || n < 1024) {
    uint64_t edges = 0;
    PullRange(program, meta, 0, n, cost, edges,
              [&](VertexId v, const Value& combined) {
                ApplyPullUpdate(program, meta, v, combined, cost);
              });
    return edges;
  }
  const size_t grain = SuggestedGrain(n, host_threads_, 256);
  const uint32_t chunks = ThreadPool::NumChunks(0, n, grain);
  if (pull_scratch_.size() < chunks) {
    pull_scratch_.resize(chunks);
  }
  pool_->ParallelFor(0, n, grain, host_threads_, [&](const ParallelChunk& c) {
    PullScratch& s = pull_scratch_[c.chunk_index];
    s.cost = CostCounters{};
    s.edges = 0;
    s.updates.clear();
    PullRange(program, meta, static_cast<VertexId>(c.begin),
              static_cast<VertexId>(c.end), s.cost, s.edges,
              [&s](VertexId v, const Value& combined) {
                s.updates.emplace_back(v, combined);
              });
  });
  uint64_t edges = 0;
  for (uint32_t i = 0; i < chunks; ++i) {
    cost += pull_scratch_[i].cost;
    edges += pull_scratch_[i].edges;
  }
  for (uint32_t i = 0; i < chunks; ++i) {
    for (const auto& [v, combined] : pull_scratch_[i].updates) {
      ApplyPullUpdate(program, meta, v, combined, cost);
    }
  }
  return edges;
}

// The per-vertex gather shared by the sequential and per-chunk paths;
// `on_update(v, combined)` fires where the sequential loop would Apply.
template <AccProgram Program>
template <typename OnUpdate>
void Engine<Program>::PullRange(const Program& program,
                                const VertexMeta<Value>& meta, VertexId vbegin,
                                VertexId vend, CostCounters& cost,
                                uint64_t& edges, OnUpdate&& on_update) const {
  const Csr& in = graph_.in();
  const bool vote = program.combine_kind() == CombineKind::kVote;
  for (VertexId v = vbegin; v < vend; ++v) {
    cost.coalesced_words += 1;  // own metadata, sequential over v
    cost.alu_ops += 1;
    if (program.PullSkip(meta.prev(v))) {
      continue;
    }
    cost.coalesced_words += 2;  // row offsets
    const auto nbrs = in.Neighbors(v);
    const auto wts = in.NeighborWeights(v);
    Value combined = program.CombineIdentity();
    bool any = false;
    uint32_t scanned = 0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      ++edges;
      ++scanned;
      cost.alu_ops += 1;
      if (program.PullContributes(meta.prev(u))) {
        const Value cand =
            program.Compute(u, v, wts[i], meta.prev(u), Direction::kPull);
        combined = any ? program.Combine(combined, cand) : cand;
        any = true;
        cost.alu_ops += 2;
        if (vote && options_.enable_vote_early_exit) {
          // Voting combine: all updates are identical, one suffices —
          // collaborative early termination (Section 3.3, Figure 5).
          break;
        }
        if constexpr (kHasPullSaturated) {
          // Aggregation generalization of the vote exit: the program
          // certifies that no further contribution can change what Apply
          // will produce (e.g. MS-BFS's lane mask is already full), so
          // the rest of the gather is provably dead work. Deterministic —
          // the in-neighbor scan order is fixed — and exact, because
          // skipped contributions are absorbed by the saturated value.
          // Shares the ablation flag: baselines that model AFC-style
          // frameworks (no collaborative termination) lose both exits.
          if (options_.enable_vote_early_exit &&
              program.PullSaturated(meta.prev(v), combined)) {
            break;
          }
        }
      }
    }
    // A warp gathers 32 neighbors per step, so memory moves in 32-edge
    // granules even when the vote exits after the first contributor.
    const uint32_t degree = static_cast<uint32_t>(nbrs.size());
    const uint32_t granule = std::min(degree, (scanned + 31) / 32 * 32);
    cost.coalesced_words += 2ull * granule;  // adjacency ids + weights
    cost.scattered_words += granule;         // contributor metadata (prev)
    if (!any) {
      continue;
    }
    on_update(v, combined);
  }
}

// The deferred tail of a pull-mode vertex update; identical statement
// sequence to the tail of the original sequential loop.
template <AccProgram Program>
void Engine<Program>::ApplyPullUpdate(const Program& program,
                                      VertexMeta<Value>& meta, VertexId v,
                                      const Value& combined,
                                      CostCounters& cost) {
  const Value applied =
      program.Apply(v, combined, meta.curr(v), Direction::kPull);
  if (program.ValueChanged(meta.curr(v), applied)) {
    meta.curr(v) = applied;
    cost.coalesced_words += 1;  // own write, sequential over v
    MaybeRecord(program, meta, v, v % options_.sim_worker_threads, cost);
  }
}

// Post-pull activity consumption. ConsumeActivity is pure per vertex and
// the frontier is duplicate-free, so vertices split across threads.
template <AccProgram Program>
void Engine<Program>::ConsumeFrontier(const Program& program,
                                      VertexMeta<Value>& meta,
                                      const std::vector<VertexId>& frontier) {
  if (pool_ == nullptr || host_threads_ <= 1 || frontier.size() < 4096) {
    for (VertexId v : frontier) {
      Consume(program, meta, v, Direction::kPull);
    }
    return;
  }
  pool_->ParallelFor(0, frontier.size(),
                     SuggestedGrain(frontier.size(), host_threads_, 2048),
                     host_threads_, [&](const ParallelChunk& c) {
                       for (size_t i = c.begin; i < c.end; ++i) {
                         Consume(program, meta, frontier[i], Direction::kPull);
                       }
                     });
}

}  // namespace simdx

#endif  // SIMDX_CORE_ENGINE_PULL_H_
