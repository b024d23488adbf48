// The Active–Compute–Combine (ACC) programming model (paper Section 3).
//
// A graph algorithm supplies:
//   Active(curr, prev)        — did this vertex acquire unconsumed work?
//   Compute(src, dst, w, val) — the update one edge produces
//   Combine(a, b)             — commutative + associative merge of updates
//   Apply(v, combined, old)   — fold the merged update into vertex state
// plus small policy hooks (direction choice, convergence, pull filtering).
// Everything else — task filtering, degree-classified scheduling, kernel
// fusion — is the framework's job, which is the paper's thesis.
//
// Execution contract (matches the BSP ping-pong buffers of the GPU design):
//  * PUSH iterations scatter along out-edges reading the PHASE-START
//    snapshot of every source value (pure BSP, Jacobi flavored: the engine
//    defers all destination writes into a push record stream and replays
//    them after the scatter, so a candidate computed this phase never
//    observes a value written this phase — exact for monotone combines and
//    for residual-carrying programs, and what lets the scatter run on
//    several host threads).
//  * PULL iterations gather along in-edges reading the PREVIOUS-iteration
//    value of every contributor (pure BSP — what the double-buffered
//    metadata arrays give the real kernels).
//  * Active(curr, prev) is evaluated against the value snapshot taken at the
//    last frontier commit; it must mean "this vertex has updates its
//    neighbors have not consumed yet".
//  * Apply runs on one thread in serial order and may touch program state:
//    both the push drain and the pull apply replay their updates on the
//    thread that called Run, in the order the sequential loop would
//    (delta-stepping SSSP parks vertices into its pending list from Apply).
#ifndef SIMDX_CORE_ACC_H_
#define SIMDX_CORE_ACC_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace simdx {

enum class Direction : uint8_t { kPush, kPull };

// Section 3.2: "aggregation cannot tolerate overwrites ... voting relaxes
// this condition, that is, the algorithm is correct as long as one update is
// received because all updates are identical." Vote lets pull-mode gathers
// terminate early at the first contributing neighbor (BFS).
enum class CombineKind : uint8_t { kVote, kAggregation };

// What the engine may legally do with a destination's push records before
// Apply sees them. The ACC abstraction exists so the runtime can exploit
// algebraic structure: when a program declares kAssociativeOnly, the push
// replay may FOLD all of a destination's candidates with Combine (in serial
// record order) and issue exactly ONE Apply per touched destination — the
// paper's combine-before-apply scheme, selected by
// EngineOptions::pre_combine_replay and accounted under the
// StatsContract::kPerDestination contract (simt/cost_model.h). The fold
// happens in exactly one place, the drain (engine_push.h FoldRecord); the
// collect always buffers one record per out-edge.
//
// kAssociativeOnly is a PROMISE the program makes, enforced by randomized
// law checks in tests/algos/acc_laws_test.cc:
//   * Combine is associative and commutative (exactly for integer values,
//     up to rounding for floating-point sums), with CombineIdentity neutral;
//   * Apply is a pure function of (v, combined, old) with no per-record
//     control flow or side effects — it treats `combined` as ONE folded
//     update and never needs to observe the records individually.
// Note the promise does NOT say folded and per-record Apply sequences give
// equal values: that stronger property holds for the idempotent min-folds
// (BFS, WCC — tested as apply-fold equivalence) but NOT for the
// replace-style programs (BP, SpMV overwrite their output with the combined
// sum, so only a gather or a PRE-COMBINED push computes them; their
// per-record push is a deterministic but degenerate last-record-wins).
// Programs whose Apply observes EACH record individually must declare
// kOrderSensitive and keep the per-record drain:
//   * SSSP parks each improving-but-out-of-bucket record into the pending
//     list (the list's order feeds RefillFrontier);
//   * k-Core freezes mid-stream — "stop further subtracting the degree ...
//     once [it] goes below k" (Section 7.1) makes the final degree depend on
//     WHERE in the record stream the removal threshold was crossed.
enum class CombineCapability : uint8_t { kOrderSensitive, kAssociativeOnly };

// Per-iteration facts handed to the program's policy hooks.
struct IterationInfo {
  uint32_t iteration = 0;
  uint64_t frontier_size = 0;
  uint64_t frontier_out_edges = 0;
  uint64_t vertex_count = 0;
  uint64_t edge_count = 0;
  Direction previous_direction = Direction::kPush;
};

// Compile-time contract every algorithm in src/algos satisfies. Engines are
// templated on the program so Compute/Combine inline into the edge loops,
// mirroring how nvcc specializes the paper's device lambdas.
//
// Optional hooks an engine detects with `requires` (InitValue seeds both
// metadata buffers: prev == curr when the first iteration starts):
//   Value ConsumeActivity(curr, prev, dir)     — hand pending activity
//                                                (e.g. residuals) to the
//                                                neighbors and clear it;
//                                                writes only the frontier
//   bool StaticFrontierAfterFirst()            — frontier provably constant
//   bool PullSaturated(v_value, combined)     — the accumulated gather value
//                                                already determines Apply's
//                                                output; stop scanning
//                                                (aggregation-kind sibling
//                                                of the kVote early exit,
//                                                e.g. MS-BFS's full lane
//                                                mask)
template <typename P>
concept AccProgram = requires(const P p, typename P::Value v, VertexId id,
                              Weight w, IterationInfo info, Direction dir) {
  typename P::Value;
  { p.combine_kind() } -> std::same_as<CombineKind>;
  { p.combine_capability() } -> std::same_as<CombineCapability>;
  { p.InitValue(id) } -> std::same_as<typename P::Value>;
  { p.InitialFrontier() } -> std::same_as<std::vector<VertexId>>;
  { p.Active(v, v) } -> std::same_as<bool>;
  { p.Compute(id, id, w, v, dir) } -> std::same_as<typename P::Value>;
  { p.Combine(v, v) } -> std::same_as<typename P::Value>;
  { p.CombineIdentity() } -> std::same_as<typename P::Value>;
  { p.Apply(id, v, v, dir) } -> std::same_as<typename P::Value>;
  { p.ValueChanged(v, v) } -> std::same_as<bool>;
  // Pull-mode filters, both evaluated on previous-iteration values:
  // skip this vertex entirely / does this neighbor contribute?
  { p.PullSkip(v) } -> std::same_as<bool>;
  { p.PullContributes(v) } -> std::same_as<bool>;
  { p.ChooseDirection(info) } -> std::same_as<Direction>;
  { p.Converged(info) } -> std::same_as<bool>;
};

}  // namespace simdx

#endif  // SIMDX_CORE_ACC_H_
