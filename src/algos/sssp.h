// Single-Source Shortest Path in ACC — the paper's running example
// (Figures 1 and 4). Aggregation-type combine (minimum): distinct updates
// must all be considered, no early termination.
//
// Section 3.3: "To improve the parallelism, we adopt the delta-step [39]
// algorithm which permits us to simultaneously compute a collection of the
// vertices whose distances are relatively shorter." Realized here as
// bucketed activation: a vertex whose improved distance falls beyond the
// current bucket limit is NOT activated (Active() rejects it); it is parked
// in a pending list instead, and when the frontier drains, RefillFrontier()
// advances the bucket and releases the nearest parked work. Without this,
// BSP relaxation on weighted high-diameter graphs re-activates each vertex
// dozens of times.
#ifndef SIMDX_ALGOS_SSSP_H_
#define SIMDX_ALGOS_SSSP_H_

#include <algorithm>
#include <vector>

#include "core/acc.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "graph/graph.h"

namespace simdx {

struct SsspProgram {
  using Value = uint32_t;  // distance; kInfinity = unreached

  VertexId source = 0;
  uint64_t pull_divisor = 10;
  // Delta-stepping bucket width. Small deltas approach Dijkstra (little
  // wasted relaxation, more bucket refills); large deltas approach plain
  // Bellman-Ford.
  uint32_t delta = 32;

  CombineKind combine_kind() const { return CombineKind::kAggregation; }
  // Combine IS an associative min, but Apply is not a pure fold: every
  // improving-but-out-of-bucket RECORD parks into the pending list, whose
  // order feeds RefillFrontier. Pre-combining would collapse those parks to
  // one per destination, changing the released-frontier order — so the
  // program keeps the per-record drain.
  CombineCapability combine_capability() const {
    return CombineCapability::kOrderSensitive;
  }
  Value InitValue(VertexId v) const { return v == source ? 0 : kInfinity; }

  std::vector<VertexId> InitialFrontier() const {
    // (Re)start: engines call this exactly once per run, so the mutable
    // bucket state resets here.
    bucket_limit_ = delta;
    pending_.clear();
    pending_marked_.clear();
    return {source};
  }

  // Active = improved into the current bucket. Improvements beyond the
  // bucket were parked by Apply and stay invisible to both the online bins
  // and the ballot scan until RefillFrontier releases them.
  bool Active(const Value& curr, const Value& prev) const {
    return curr != prev && curr < bucket_limit_;
  }

  Value Compute(VertexId /*src*/, VertexId /*dst*/, Weight w,
                const Value& src_value, Direction /*dir*/) const {
    // Saturating relaxation: an unreached source contributes nothing.
    return src_value == kInfinity ? kInfinity : src_value + w;
  }
  Value Combine(const Value& a, const Value& b) const { return a < b ? a : b; }
  Value CombineIdentity() const { return kInfinity; }

  // Parks straight from Apply: the engine calls Apply on one thread in
  // serial record order (core/acc.h), so the pending list comes out in the
  // sequential order RefillFrontier depends on.
  Value Apply(VertexId v, const Value& combined, const Value& old,
              Direction /*dir*/) const {
    if (combined >= old) {
      return old;
    }
    if (combined >= bucket_limit_) {
      Park(v, combined);
    }
    return combined;
  }

  bool ValueChanged(const Value& before, const Value& after) const {
    return before != after;
  }

  // Called by engines when the frontier drains: advance the bucket past the
  // nearest parked distance and release everything now in range. Returns
  // empty when no work is left (true convergence).
  std::vector<VertexId> RefillFrontier() const {
    if (pending_.empty()) {
      return {};
    }
    uint32_t nearest = kInfinity;
    for (const auto& [v, dist] : pending_) {
      nearest = std::min(nearest, dist);
    }
    bucket_limit_ = std::max(bucket_limit_, nearest + delta);
    std::vector<VertexId> released;
    std::vector<std::pair<VertexId, Value>> kept;
    for (const auto& entry : pending_) {
      if (entry.second < bucket_limit_) {
        released.push_back(entry.first);
        pending_marked_[entry.first] = 0;
      } else {
        kept.push_back(entry);
      }
    }
    pending_.swap(kept);
    return released;
  }

  bool PullSkip(const Value&) const { return false; }  // any vertex can improve
  bool PullContributes(const Value& u_value) const { return u_value != kInfinity; }

  Direction ChooseDirection(const IterationInfo& info) const {
    return info.frontier_out_edges > info.edge_count / pull_divisor
               ? Direction::kPull
               : Direction::kPush;
  }
  bool Converged(const IterationInfo&) const { return false; }

  // Checkpoint hooks (engine.h kHasProgramState): the delta-stepping
  // scheduler carries cross-iteration state beyond the frontier — the bucket
  // limit and the ORDERED pending list (its order feeds RefillFrontier,
  // hence the released-frontier order, hence every downstream stat).
  // pending_marked_ is a membership mirror rebuilt from the list. The bytes
  // are untrusted: a pending id outside the graph or listed twice fails the
  // restore (the engine reports kFaulted) before it can index or size
  // anything — Park never writes either.
  void SaveSchedulerState(std::vector<uint8_t>& out) const {
    ByteWriter w(&out);
    w.Pod(bucket_limit_);
    w.Pod(static_cast<uint64_t>(pending_.size()));
    for (const auto& [v, dist] : pending_) {
      w.Pod(v);
      w.Pod(dist);
    }
  }
  bool RestoreSchedulerState(const uint8_t* data, size_t size,
                             uint64_t vertex_count) const {
    ByteReader r(data, size);
    uint64_t count = 0;
    if (!r.Pod(&bucket_limit_) || !r.Pod(&count) ||
        count > r.remaining() / (sizeof(VertexId) + sizeof(Value))) {
      return false;
    }
    pending_.clear();
    pending_marked_.assign(static_cast<size_t>(vertex_count), 0);
    pending_.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      VertexId v = 0;
      Value dist = 0;
      r.Pod(&v);
      if (!r.Pod(&dist) || v >= vertex_count || pending_marked_[v] != 0) {
        return false;
      }
      pending_.emplace_back(v, dist);
      pending_marked_[v] = 1;
    }
    return r.AtEnd();
  }

 private:
  void Park(VertexId v, Value dist) const {
    if (pending_marked_.empty()) {
      // Lazy sizing; ids are bounded by the largest vertex seen + slack.
      pending_marked_.resize(static_cast<size_t>(v) + 1024, 0);
    } else if (v >= pending_marked_.size()) {
      pending_marked_.resize(static_cast<size_t>(v) + 1024, 0);
    }
    if (!pending_marked_[v]) {
      pending_marked_[v] = 1;
      pending_.emplace_back(v, dist);
    }
  }

  // Delta-stepping state. Mutable: the ACC interface is const (programs are
  // logically pure), and the bucket bookkeeping is a scheduling detail, not
  // algorithm state.
  mutable Value bucket_limit_ = 32;
  mutable std::vector<std::pair<VertexId, Value>> pending_;
  mutable std::vector<uint8_t> pending_marked_;
};

}  // namespace simdx

#endif  // SIMDX_ALGOS_SSSP_H_
