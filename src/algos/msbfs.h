// Bit-parallel multi-source BFS (MS-BFS): one traversal advances up to 64
// sources at once. Per-vertex state is a uint64_t LANE MASK — bit i set
// means "source i has reached this vertex" — so one push/pull pass moves
// every source's frontier one hop, and the edge work for N sources is the
// UNION of their frontiers instead of the sum: on small-diameter power-law
// graphs that is within ~2x of ONE single-source traversal, vs N× for N
// independent runs. This is the classic machine-word batching trick the
// ROADMAP's "throughput scales with users, not cores" item calls for, and
// what the GraphService's dispatch loop coalesces admitted BFS queries into.
//
// ACC mapping:
//   * Compute propagates the source vertex's full mask (re-propagating
//     already-delivered bits is idempotent under OR);
//   * Combine is bitwise OR — associative, commutative, idempotent, identity
//     0 — so the program declares CombineCapability::kAssociativeOnly and
//     rides the pre-combined drain unchanged;
//   * combine_kind is kAggregation, NOT kVote: distinct sources contribute
//     DIFFERENT masks, so a pull gather must visit every contributor (vote
//     early-exit after the first one would drop lanes);
//   * Apply ORs the folded update in. Depth extraction happens AT SETTLE
//     TIME: the bits Apply newly sets (combined & ~old) are stamped with the
//     current BFS depth into a per-(vertex, lane) level table held in
//     MsBfsState. Apply runs on the Run thread in serial order: the
//     pre-combined drain issues one Apply per touched destination, and the
//     per-record drain writes each first-arrival once (later records of the
//     same iteration see the bit already in `old`). All contracts therefore
//     extract BIT-IDENTICAL level tables — the differential test's oracle.
//
// Per-lane levels are exactly the single-source BfsProgram's value array
// (settle depth == BFS distance, kInfinity where unreached): lane bits move
// one hop per BSP iteration, so a bit first arrives at iteration d-1's
// commit for a vertex at distance d — the same level BfsProgram assigns.
#ifndef SIMDX_ALGOS_MSBFS_H_
#define SIMDX_ALGOS_MSBFS_H_

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "core/acc.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "graph/graph.h"

namespace simdx {

// Cross-iteration scheduler state the program carries beyond the per-vertex
// masks: the settle-time level table and the current BFS depth. Lives
// outside the program so a service worker can reuse one allocation across
// batches (the program itself stays a cheap const value object).
struct MsBfsState {
  std::vector<VertexId> sources;  // lane i -> source vertex (distinct)
  uint64_t vertex_count = 0;
  uint64_t full_mask = 0;         // all configured lanes set
  // v * lanes + lane -> settle depth (kInfinity = lane never reached v).
  std::vector<uint32_t> levels;
  uint32_t depth = 0;  // BFS depth Apply stamps this iteration
  // Per-vertex count of settled lanes, maintained by Apply (on the Run
  // thread, like every Apply). Feeds the pull-cost bound below;
  // rebuilt from `levels` on resume, so it never enters the checkpoint.
  std::vector<uint8_t> lanes_set;
  // Sum of in-degrees over vertices still missing a lane — an upper bound
  // on the next pull iteration's edge scans (PullSkip drops settled
  // vertices before touching their adjacency; PullSaturated stops early).
  // Refreshed by Converged() at the top of each iteration.
  uint64_t unsettled_in_edges = 0;
  bool pull_wins = false;  // Converged's verdict, read by ChooseDirection

  uint32_t lanes() const { return static_cast<uint32_t>(sources.size()); }

  // Lane carrying `source`, or lanes() when absent (linear scan: <= 64).
  uint32_t LaneOf(VertexId source) const {
    for (uint32_t i = 0; i < sources.size(); ++i) {
      if (sources[i] == source) {
        return i;
      }
    }
    return lanes();
  }
};

// Configure `state` for one batch: distinct sources keep their first lane
// (duplicates collapse — callers demux several queries onto one lane), and
// anything beyond 64 distinct sources is dropped; check lanes() when the
// input may overflow. The level table is emptied here (O(1), capacity
// kept), not filled: InitialFrontier() sizes and resets it and the settled
// census at the start of every run, RobustRun's retries included, so they
// are filled once per batch. A run refused before it starts (an OOM
// verdict) leaves the table empty, which DemuxLanes reads as unreached.
inline void MsBfsInit(MsBfsState* state, const std::vector<VertexId>& sources,
                      uint64_t vertex_count) {
  state->sources.clear();
  for (VertexId s : sources) {
    if (state->sources.size() == 64) {
      break;
    }
    if (state->LaneOf(s) == state->lanes()) {
      state->sources.push_back(s);
    }
  }
  state->vertex_count = vertex_count;
  state->levels.clear();
  const uint32_t lanes = state->lanes();
  state->full_mask =
      lanes >= 64 ? ~0ull : ((1ull << lanes) - 1ull);
  state->depth = 0;
  state->unsettled_in_edges = 0;
}

// A finished batch's per-lane answers, demuxed by DemuxLanes.
struct MsBfsLaneAnswers {
  // Lane i's FNV-1a digest: ValueBytesFingerprint of its level array.
  std::vector<uint64_t> digests;
  // Lane i's level array as raw bytes — bit-comparable against the
  // single-source BfsProgram's RunResult::values for the same source —
  // for the lanes asked for; empty for the others.
  std::vector<std::vector<uint8_t>> bytes;
};

// Demuxes every lane in ONE row-major sweep over the level table: each
// vertex's row is read once and advances all lane digests, and only the
// lanes set in `wanted` (bit i = lane i) are written out. Extracting lane by
// lane would stride through the table once per lane and hash each lane in
// its own serial FNV chain; here the lanes' chains interleave. A table that
// does not hold vertex_count x lanes entries (its run never started) demuxes
// as kInfinity everywhere; read the answers only when the run's stats are
// ok().
inline MsBfsLaneAnswers DemuxLanes(const MsBfsState& state, uint64_t wanted) {
  const uint32_t lanes = state.lanes();
  MsBfsLaneAnswers out;
  out.bytes.resize(lanes);
  uint64_t digest[64];
  uint32_t written[64];  // lanes to write out, in lane order
  uint8_t* dst[64];
  uint32_t write_count = 0;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    digest[lane] = kFnvOffsetBasis;
    if ((wanted >> lane) & 1u) {
      out.bytes[lane].resize(state.vertex_count * sizeof(uint32_t));
      dst[write_count] = out.bytes[lane].data();
      written[write_count++] = lane;
    }
  }
  uint32_t unreached[64];
  std::fill(unreached, unreached + 64, kInfinity);
  const bool sized = state.levels.size() == state.vertex_count * lanes;
  const uint32_t* row = sized ? state.levels.data() : unreached;
  const uint32_t stride = sized ? lanes : 0;
  for (uint64_t v = 0; v < state.vertex_count; ++v, row += stride) {
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      digest[lane] = Fnv1a(&row[lane], sizeof(uint32_t), digest[lane]);
    }
    for (uint32_t i = 0; i < write_count; ++i) {
      std::memcpy(dst[i] + v * sizeof(uint32_t), &row[written[i]],
                  sizeof(uint32_t));
    }
  }
  out.digests.assign(digest, digest + lanes);
  return out;
}

struct MsBfsProgram {
  using Value = uint64_t;  // lane mask: bit i = source i reached this vertex

  MsBfsState* state = nullptr;
  // Enables the measured direction policy: pull when the unsettled-vertex
  // in-degree bound undercuts the frontier's out-degree. Without it (null)
  // the program is push-only. A fixed frontier-share threshold (the
  // single-source BfsProgram's pull_divisor trick) is WRONG for lane masks:
  // it flips to pull during the heavy middle waves, when few vertices are
  // saturated and an aggregation gather must scan nearly every in-edge —
  // measured 5x the push-only work. The win hides in the LATE waves, where
  // straggler lanes re-push entire hub adjacency lists to deliver bits
  // almost everyone already holds; by then most vertices are settled, so a
  // pull skips them wholesale (PullSkip) and the rest saturate a few
  // contributors into their gather (PullSaturated). That needs the live
  // settled census, not a frontier-size proxy.
  const Graph* graph = nullptr;

  CombineKind combine_kind() const { return CombineKind::kAggregation; }
  // OR is associative/commutative with identity 0, and Apply is a pure
  // OR-fold per destination (the settle-time level stamp depends only on
  // (v, combined, old) and the iteration — not on record boundaries), so
  // the pre-combined drain is exact.
  CombineCapability combine_capability() const {
    return CombineCapability::kAssociativeOnly;
  }

  Value InitValue(VertexId v) const {
    Value mask = 0;
    for (uint32_t i = 0; i < state->sources.size(); ++i) {
      if (state->sources[i] == v) {
        mask |= 1ull << i;
      }
    }
    return mask;
  }

  std::vector<VertexId> InitialFrontier() const {
    // Engines call this exactly once per run start (before a resume
    // restore overwrites loop-carried state), so the level table resets
    // here — a RobustRun retry from scratch starts clean.
    const uint32_t lanes = state->lanes();
    state->levels.assign(state->vertex_count * lanes, kInfinity);
    state->lanes_set.assign(state->vertex_count, 0);
    state->depth = 0;
    state->unsettled_in_edges = 0;
    for (uint32_t i = 0; i < lanes; ++i) {
      state->levels[static_cast<uint64_t>(state->sources[i]) * lanes + i] = 0;
      ++state->lanes_set[state->sources[i]];
    }
    std::vector<VertexId> frontier = state->sources;
    std::sort(frontier.begin(), frontier.end());
    return frontier;
  }

  bool Active(const Value& curr, const Value& prev) const {
    return curr != prev;  // mask grew since the last frontier commit
  }

  Value Compute(VertexId /*src*/, VertexId /*dst*/, Weight /*w*/,
                const Value& src_value, Direction /*dir*/) const {
    return src_value;
  }
  Value Combine(const Value& a, const Value& b) const { return a | b; }
  Value CombineIdentity() const { return 0; }

  Value Apply(VertexId v, const Value& combined, const Value& old,
              Direction /*dir*/) const {
    const Value next = old | combined;
    Value fresh = next & ~old;
    if (fresh != 0) {
      // Settle time: stamp the depth for every lane that just arrived.
      // Both drains (per-record and pre-combined) and the pull apply run
      // on the Run thread and settle a lane in the same iteration —
      // identical level tables by construction.
      const uint32_t lanes = state->lanes();
      uint32_t* row = state->levels.data() + static_cast<uint64_t>(v) * lanes;
      state->lanes_set[v] += static_cast<uint8_t>(std::popcount(fresh));
      while (fresh != 0) {
        const int lane = std::countr_zero(fresh);
        row[lane] = state->depth;
        fresh &= fresh - 1;
      }
    }
    return next;
  }

  bool ValueChanged(const Value& before, const Value& after) const {
    return before != after;
  }

  // A vertex that already carries every lane cannot learn anything new.
  bool PullSkip(const Value& v_value) const {
    return v_value == state->full_mask;
  }
  bool PullContributes(const Value& u_value) const { return u_value != 0; }
  // Saturation early-exit (engine.h kHasPullSaturated): once the gathered
  // bits plus the vertex's own cover every lane, the remaining in-neighbors
  // are dead work — OR is idempotent, so skipping them is exact. This is
  // what makes the heavy middle iteration (where most of the graph turns
  // active at once) cost far less than a full |E| scan.
  bool PullSaturated(const Value& v_value, const Value& combined) const {
    return (v_value | combined) == state->full_mask;
  }

  Direction ChooseDirection(const IterationInfo& /*info*/) const {
    // Converged (always called first this iteration) already compared the
    // bounds and cached the verdict in `depth`'s sibling field; re-derive
    // it here so the hook stays const and stateless.
    return state->pull_wins ? Direction::kPull : Direction::kPush;
  }

  bool Converged(const IterationInfo& info) const {
    // Called at the top of EVERY iteration (including the first after a
    // resume, before any Apply), which makes it the depth clock: bits
    // settling during iteration i are at BFS depth i + 1.
    state->depth = info.iteration + 1;
    // Refresh the settled census and decide this iteration's direction:
    // pull when even the WORST-CASE gather (every unsettled vertex scans
    // its whole in-edge list; PullSaturated only makes it cheaper) beats
    // re-pushing the frontier's out-edges. The census is deterministic —
    // lanes_set is fully committed at iteration boundaries for any
    // host_threads — so the direction pattern is too.
    state->unsettled_in_edges = 0;
    if (graph != nullptr) {
      const uint32_t lanes = state->lanes();
      for (VertexId v = 0; v < state->vertex_count; ++v) {
        if (state->lanes_set[v] < lanes) {
          state->unsettled_in_edges += graph->InDegree(v);
        }
      }
      state->pull_wins = state->unsettled_in_edges < info.frontier_out_edges;
    } else {
      state->pull_wins = false;
    }
    return false;
  }

  // Checkpoint hooks (engine.h kHasProgramState): the level table is
  // loop-carried state a resumed run must restore bit-identically; `depth`
  // is re-derived by Converged before the first post-resume Apply. The
  // table moves as one byte span each way. Restore refuses a state sized for
  // a different graph or lane count than the engine's, and any byte beyond
  // the table.
  void SaveSchedulerState(std::vector<uint8_t>& out) const {
    ByteWriter w(&out);
    w.Pod(static_cast<uint32_t>(state->lanes()));
    w.Pod(static_cast<uint64_t>(state->levels.size()));
    w.Bytes(state->levels.data(), state->levels.size() * sizeof(uint32_t));
  }
  bool RestoreSchedulerState(const uint8_t* data, size_t size,
                             uint64_t vertex_count) const {
    ByteReader r(data, size);
    uint32_t lanes = 0;
    uint64_t count = 0;
    if (!r.Pod(&lanes) || !r.Pod(&count) || lanes != state->lanes() ||
        vertex_count != state->vertex_count ||
        count != state->vertex_count * lanes ||
        count > r.remaining() / sizeof(uint32_t)) {
      return false;
    }
    const size_t bytes = static_cast<size_t>(count) * sizeof(uint32_t);
    const uint8_t* levels = r.Raw(bytes);
    if (levels == nullptr || !r.AtEnd()) {
      return false;
    }
    state->levels.resize(static_cast<size_t>(count));
    if (bytes != 0) {
      std::memcpy(state->levels.data(), levels, bytes);
    }
    // lanes_set is derived state: rebuild the settled census instead of
    // checkpointing it (a resumed run must see the same direction policy
    // inputs as the uninterrupted one).
    state->lanes_set.assign(state->vertex_count, 0);
    for (uint64_t v = 0; v < state->vertex_count; ++v) {
      uint8_t set = 0;
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        set += state->levels[v * lanes + lane] != kInfinity;
      }
      state->lanes_set[v] = set;
    }
    return true;
  }
};

}  // namespace simdx

#endif  // SIMDX_ALGOS_MSBFS_H_
