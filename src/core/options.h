// Engine configuration knobs, each mapping to one of the paper's design
// dimensions so the ablation benches can flip exactly one at a time.
#ifndef SIMDX_CORE_OPTIONS_H_
#define SIMDX_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "simt/device.h"

namespace simdx {

// Section 5 / Figure 13.
enum class FusionPolicy : uint8_t {
  kNoFusion,   // one launch per kernel per iteration (up to 40,688 in Table 2)
  kSelective,  // SIMD-X: one fused kernel per push/pull phase (3 launches)
  kAllFusion,  // one giant kernel (110 registers, low occupancy)
};

// Section 4 / Figure 12.
enum class FilterPolicy : uint8_t {
  kJit,         // SIMD-X: online until a bin overflows, then ballot
  kOnlineOnly,  // bins only; FAILS (drops work) when a bin overflows
  kBallotOnly,  // full metadata scan every iteration
  kBatch,       // Gunrock-style active-edge-list construction
};

struct EngineOptions {
  FusionPolicy fusion = FusionPolicy::kSelective;
  FilterPolicy filter = FilterPolicy::kJit;

  // Section 4 "Overflow thresholds for online filter": 64 is the paper's
  // chosen default; fig09 sweeps it.
  uint32_t overflow_threshold = 64;

  // "Classification of small, medium and large worklists": warp and block
  // sizes, i.e. degree < 32 -> Thread kernel, < 128 -> Warp, else CTA.
  uint32_t small_degree_limit = 32;
  uint32_t medium_degree_limit = 128;

  uint32_t threads_per_cta = 128;  // paper default for Eq. 1

  // Number of simulated worker threads that own online-filter bins. Real
  // SIMD-X has grid*CTA threads (~7680 on K40). Overflow is decided by the
  // ratio activations-per-thread vs. the 64-entry threshold, and our preset
  // graphs are ~1/1000 of the paper's, so the default scales the thread
  // count down accordingly (7680/160) to keep that ratio in the same
  // regime: thin road-graph wavefronts never overflow (online filter all
  // the way), flooding social-graph frontiers do (ballot in the middle) —
  // the Figure 8 patterns.
  uint32_t sim_worker_threads = 48;

  uint32_t max_iterations = 100000;

  // HOST threads driving the simulator's embarrassingly-parallel phases
  // (pull gathers, ballot scans, frontier classification). Purely a
  // wall-clock knob: every simulated statistic is bit-identical for any
  // value (see core/parallel.h). 0 = hardware_concurrency; 1 = the serial
  // code path, chunk by chunk in order on the calling thread.
  uint32_t host_threads = 0;

  // --- Host-runtime knobs (wall-clock only; never change simulated stats).

  // The push drain is owner-computes over one destination range per host
  // thread (engine_push.h). Iterations that buffer fewer records than this
  // drain as ONE range inline on the calling thread instead (identical
  // results; a pool dispatch and the per-range scans of the whole record
  // stream aren't worth a few thousand applies). Tests set 0 to split even
  // tiny graphs' drains over several ranges.
  size_t parallel_replay_min_records = 2048;

  // Associative pre-combining replay: for programs declaring
  // CombineCapability::kAssociativeOnly (core/acc.h), fold each destination's
  // buffered records with Combine and issue exactly ONE Apply per touched
  // destination per push iteration — the drain shrinks from O(records) to
  // O(touched destinations). NOT a pure wall-clock knob: per-record simulated
  // stats legitimately change, so the run is accounted under
  // StatsContract::kPerDestination (values and stats remain bit-identical
  // across host_threads under that contract; see bench/README.md). Off by
  // default to preserve the per-record fingerprints. Order-sensitive programs
  // (SSSP, k-Core) ignore the flag and keep the per-record drain.
  bool pre_combine_replay = false;

  // Record host wall-clock collect/replay splits and per-range replay busy
  // times (Engine::push_profile(), bench/push_replay). Off by default to
  // keep clock reads out of the hot loop.
  bool profile_push_replay = false;

  // 0 = use the device's global_memory_bytes. Benches shrink this by the
  // preset scale factor so the paper's OOM rows reproduce.
  size_t memory_budget_bytes = 0;

  // Record a per-iteration log in the result (frontier size, filter chosen,
  // direction, time). Cheap; on by default.
  bool keep_iteration_log = true;

  // Baselines model frameworks that do not re-tune their launch geometry per
  // device ("runtime tuning" in Section 7.3): caps the SMs the cost model
  // may exploit. 0 = use all SMs (SIMD-X behaviour).
  uint32_t fixed_sm_budget = 0;

  // --- ACC-model ablations (Figure 5: ACC vs Gunrock's AFC) ---
  // Apply updates with device atomics (AFC style) instead of the ACC
  // compute-then-combine single-writer scheme; charges atomic latency plus
  // same-destination contention.
  bool use_atomic_updates = false;
  // Vote-kind pull gathers stop at the first contributor ("collaborative
  // early termination"); AFC cannot do this.
  bool enable_vote_early_exit = true;
  // Force push-mode processing every iteration (Gunrock's advance is
  // push-based).
  bool force_push = false;
  // Force pull-mode processing every iteration (every vertex gathers from
  // its in-neighbors regardless of the program's direction heuristic).
  // Mutually exclusive with force_push; force_push wins if both are set.
  // Used by the differential determinism harness to pin each direction's
  // code path independently of the frontier trajectory.
  bool force_pull = false;
  // Degree-classify the frontier into Thread/Warp/CTA lists (Figure 7,
  // step II). When off, one thread owns one frontier vertex regardless of
  // degree and the warp serializes on its largest vertex — the workload
  // imbalance the classification exists to fix.
  bool classify_worklists = true;
};

}  // namespace simdx

#endif  // SIMDX_CORE_OPTIONS_H_
