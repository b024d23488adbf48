// Double-buffered vertex metadata. `curr` is mutated during the iteration;
// `prev` holds the value at the last frontier generation so that
// Active(curr, prev) — the ballot filter's scan predicate — can detect
// vertices updated since then (paper Figure 4(a), SSSP's Active).
//
// Snapshot invariants the engine leans on:
//   * Between SyncPrev (the frontier commit) and the next iteration's first
//     Apply, nothing writes `curr` — the push collect pass and the pull
//     gather both run in that window, so they may read `curr`/`prev`
//     concurrently from any number of host threads with every write
//     deferred to the ordered replay that follows, which runs on the Run
//     thread alone.
//   * At every iteration boundary prev == curr: construction seeds both
//     from one value, and every commit copies at least each vertex the
//     iteration wrote. So a commit may copy only those vertices
//     (Engine::CommitPrev), and a checkpoint stores curr alone: writing one
//     checks the invariant (PrevMatchesCurr) and ends the run kFaulted if
//     it fails, and a restore seeds both arrays from the one it stored.
//
// Storage uses NumaVector (default-init allocator): for trivial Values the
// arrays' pages stay unmapped through resize and are faulted in by whichever
// thread first writes them, so the parallel-init constructor below gives
// first-touch NUMA placement (non-trivial Values run their constructors at
// resize — placement is then best-effort).
#ifndef SIMDX_CORE_METADATA_H_
#define SIMDX_CORE_METADATA_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.h"
#include "graph/types.h"

namespace simdx {

template <typename Value>
class VertexMeta {
 public:
  VertexMeta() = default;

  template <typename InitFn>
  VertexMeta(VertexId vertex_count, InitFn init) {
    curr_.reserve(vertex_count);
    for (VertexId v = 0; v < vertex_count; ++v) {
      curr_.push_back(init(v));
    }
    prev_ = curr_;
  }

  // Parallel first-touch construction: init(v) is written through
  // ParallelFor so each page lands on a thread that will scan that vertex
  // range. A plain per-element store of the same values — identical
  // contents for any thread count, including the serial fallback.
  template <typename InitFn>
  VertexMeta(VertexId vertex_count, InitFn init, ThreadPool* pool,
             uint32_t threads) {
    curr_.resize(vertex_count);
    prev_.resize(vertex_count);
    ParallelRange(vertex_count, pool, threads, 8192,
                  [&](size_t begin, size_t end) {
                    for (size_t v = begin; v < end; ++v) {
                      curr_[v] = init(static_cast<VertexId>(v));
                      prev_[v] = curr_[v];
                    }
                  });
  }

  VertexId size() const { return static_cast<VertexId>(curr_.size()); }

  const Value& curr(VertexId v) const { return curr_[v]; }
  Value& curr(VertexId v) { return curr_[v]; }
  const Value& prev(VertexId v) const { return prev_[v]; }

  const NumaVector<Value>& values() const { return curr_; }

  // The iteration-boundary invariant (top of this file), checked bytewise:
  // a checkpoint stores curr's raw bytes and seeds prev from them.
  bool PrevMatchesCurr() const {
    return curr_.empty() ||
           std::memcmp(curr_.data(), prev_.data(),
                       curr_.size() * sizeof(Value)) == 0;
  }

  // Checkpoint restore at an iteration boundary: overwrite both buffers
  // from one snapshot of size() values (prev == curr there). memcpy because
  // checkpoint section payloads carry no alignment guarantee.
  void RestoreSnapshot(const void* values) {
    if (curr_.empty()) {
      return;
    }
    std::memcpy(curr_.data(), values, curr_.size() * sizeof(Value));
    std::memcpy(prev_.data(), values, prev_.size() * sizeof(Value));
  }

  // Frontier generation committed: from now on "changed" means changed
  // relative to this instant. The one-vertex form is the sparse commit's
  // step.
  void SyncPrev() { prev_ = curr_; }
  void SyncPrev(VertexId v) { prev_[v] = curr_[v]; }

  // Parallel commit for large metadata arrays (a plain per-element copy, so
  // the result is identical for any thread count).
  void SyncPrev(ThreadPool* pool, uint32_t threads) {
    if (pool == nullptr || threads <= 1 || curr_.size() < (1u << 15)) {
      prev_ = curr_;
      return;
    }
    pool->ParallelFor(0, curr_.size(), SuggestedGrain(curr_.size(), threads, 8192),
                      threads, [&](const ParallelChunk& c) {
                        std::copy(curr_.begin() + c.begin, curr_.begin() + c.end,
                                  prev_.begin() + c.begin);
                      });
  }

 private:
  NumaVector<Value> curr_;
  NumaVector<Value> prev_;
};

}  // namespace simdx

#endif  // SIMDX_CORE_METADATA_H_
