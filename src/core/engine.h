// The SIMD-X execution engine: runs an ACC program over a graph on the
// simulated device, combining the paper's three systems —
//   * degree-classified Thread/Warp/CTA scheduling (Section 4, step II),
//   * JIT task management with online + ballot filters (Section 4, step I),
//   * push-pull selective kernel fusion with Eq.-1 grid sizing (Section 5).
//
// Execution is functionally exact (the returned metadata is the algorithm's
// true fixpoint, verified against CPU oracles in tests); the GPU is present
// as an event-cost model — every simulated memory transaction, atomic,
// kernel launch and barrier crossing is charged to CostCounters and
// converted to simulated time per-iteration at that iteration's occupancy.
//
// Buffering model (see acc.h): both directions are BSP. Pull reads prev
// (frozen all iteration); push reads the phase-start snapshot of curr —
// identical to curr at collect time, because every push write is deferred
// into the iteration's record stream and replayed after the collect
// (engine_push.h).
// prev is synchronized to curr at every frontier commit, so
// Active(curr, prev) during an iteration means exactly "changed since the
// last commit" — the predicate the ballot filter scans. The real kernels get
// the commit free from the metadata ping-pong swap; here it is a copy, and a
// thin push iteration copies only the vertices it could have written
// (CommitPrev), so a ~1,000-iteration road-graph BFS pays no O(V) pass per
// iteration. That rests on prev == curr at every iteration boundary
// (metadata.h).
//
// The member definitions live in one file per seam, included at the end:
// engine_control.h (cancellation, faults, checkpoints), engine_push.h
// (parallel collect, serial drain) and engine_pull.h (gathers).
#ifndef SIMDX_CORE_ENGINE_H_
#define SIMDX_CORE_ENGINE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "core/acc.h"
#include "core/checkpoint.h"
#include "core/control.h"
#include "core/fault.h"
#include "core/fusion.h"
#include "core/jit.h"
#include "core/metadata.h"
#include "core/options.h"
#include "core/parallel.h"
#include "core/result.h"
#include "core/worklist.h"
#include "graph/graph.h"
#include "simt/barrier.h"
#include "simt/cost_model.h"
#include "simt/device.h"

namespace simdx {

// Occupancy above this fraction no longer buys throughput for the
// memory-bound graph kernels (bandwidth saturates); below it, throughput
// degrades linearly. This is what makes all-fusion's 110-register kernels
// slower despite fewer launches (Figure 13).
inline constexpr double kOccupancySaturation = 0.4;

inline double EffectiveOccupancy(double occupancy) {
  return std::clamp(occupancy / kOccupancySaturation, 0.05, 1.0);
}

// Engine::CommitPrev copies prev vertex by vertex while a push iteration's
// possible writes number at most |V| / this, and all of curr above it.
inline constexpr uint64_t kSparseCommitDivisor = 16;

// Host wall-clock split of the push phase, recorded when
// EngineOptions::profile_push_replay is set (consumed by bench/push_replay
// and bench/e2e). All times are HOST milliseconds — the simulator's own
// cost, not simulated GPU time.
struct PushReplayIterationSplit {
  uint32_t iteration = 0;
  uint64_t records = 0;
  // Applies the drain issued: == records under the per-record drain, == the
  // touched-destination count under the pre-combined drain.
  uint64_t applies = 0;
  double collect_ms = 0.0;
  double replay_ms = 0.0;
  bool pre_combined = false;  // associative fold drain (one Apply per dst)
};

struct PushReplayProfile {
  // Push drains run. Every drain is serial on the Run thread, so
  // partitioned_replays stays 0; bench/e2e still reads it.
  uint64_t partitioned_replays = 0;
  uint64_t serial_replays = 0;
  // Pre-combined drains and their record/apply
  // totals; fold_records / fold_applies is the fold ratio — how many
  // candidates Combine folded away per issued Apply.
  uint64_t precombined_replays = 0;
  uint64_t fold_records = 0;
  uint64_t fold_applies = 0;
  double collect_ms = 0.0;  // summed over push iterations
  double replay_ms = 0.0;
  // Pre-combined drain split: time folding candidates vs applying them
  // (consumes are counted with apply).
  double fold_ms = 0.0;
  double apply_ms = 0.0;
  std::vector<PushReplayIterationSplit> iterations;
};

template <AccProgram Program>
class Engine {
 public:
  using Value = typename Program::Value;

  Engine(const Graph& graph, DeviceSpec device, EngineOptions options)
      : graph_(graph), device_(std::move(device)), options_(options) {
    host_threads_ = options_.host_threads != 0
                        ? options_.host_threads
                        : std::max(1u, std::thread::hardware_concurrency());
    pool_ = host_threads_ > 1 ? &ThreadPool::Global() : nullptr;
    if (options_.fixed_sm_budget > 0 && options_.fixed_sm_budget < device_.sm_count) {
      // A launch geometry tuned for an older part drives only a fraction of
      // a newer device's memory system — the Section 7.3 reason Gunrock
      // barely gains from K40/P100.
      const double fraction = static_cast<double>(options_.fixed_sm_budget) /
                              device_.sm_count;
      device_.mem_bandwidth_scale =
          1.0 + (device_.mem_bandwidth_scale - 1.0) * fraction;
      device_.sm_count = options_.fixed_sm_budget;
    }
  }

  RunResult<Value> Run(const Program& program) {
    return Run(program, RunControl{});
  }

  RunResult<Value> Run(const Program& program, const RunControl& control) {
    RunResult<Value> result;
    result.stats.device_bytes_needed = DeviceBytesNeeded(program.combine_kind());
    const size_t budget = options_.memory_budget_bytes != 0
                              ? options_.memory_budget_bytes
                              : device_.global_memory_bytes;
    if (result.stats.device_bytes_needed > budget) {
      result.stats.oom = true;
      return result;
    }

    // --- control-plane arming (checkpoint/cancel/fault survivability layer).
    // Disarmed (the default-constructed RunControl), every hook below
    // compiles to a branch on a null pointer or false flag — the zero-fault
    // hot path is unchanged, which bench/fault_sweep gates.
    control_ = &control;
    cancel_ = control.cancel;
    deadline_ms_ = control.time_budget_ms > 0.0
                       ? NowMs() + control.time_budget_ms
                       : 0.0;
    faults_ = control.faults != nullptr ? control.faults
                                        : FaultRegistry::FromEnv();
    watch_cancel_ = cancel_ != nullptr || deadline_ms_ > 0.0;
    control_break_ = false;
    break_outcome_ = RunOutcome::kCompleted;

    const auto n = static_cast<VertexId>(graph_.vertex_count());
    // Associative pre-combining (acc.h CombineCapability): armed per run
    // from the option AND the program's declared capability — never from
    // host_threads, so the contract below is thread-count independent.
    pre_combine_ = options_.pre_combine_replay &&
                   program.combine_capability() ==
                       CombineCapability::kAssociativeOnly;
    result.stats.contract = pre_combine_ ? StatsContract::kPerDestination
                                         : StatsContract::kPerRecord;
    VertexMeta<Value> meta = MakeMetadata(program);
    std::vector<VertexId> frontier = program.InitialFrontier();
    JitController jit(options_.filter, options_.sim_worker_threads,
                      options_.overflow_threshold, pool_, host_threads_);
    FusionAccountant fusion(options_.fusion, options_.threads_per_cta);
    // The fused kernels synchronize iterations with the software global
    // barrier; the grid must be sized by Eq. 1 or the barrier deadlocks.
    GlobalBarrier barrier(DeadlockFreeGridSize(
        device_, ResourcesFor(options_.fusion, Direction::kPush,
                              options_.threads_per_cta)));
    // Stamp arrays zeroed through ParallelFill: only the Run thread stamps
    // them, but a large graph's arrays zero faster on the pool.
    recorded_stamp_.clear();
    ParallelFill(recorded_stamp_, n, pool_, host_threads_, 8192,
                 [](size_t) { return 0u; });
    if (options_.use_atomic_updates) {
      touch_stamp_.clear();
      ParallelFill(touch_stamp_, n, pool_, host_threads_, 8192,
                   [](size_t) { return 0u; });
    }
    if (pre_combine_) {
      // Per-vertex fold accumulators for the pre-combined drain. The stamp
      // guards staleness, so fold_acc_ needs no initialization.
      fold_stamp_.clear();
      ParallelFill(fold_stamp_, n, pool_, host_threads_, 8192,
                   [](size_t) { return 0u; });
      if (fold_acc_.size() < n) {
        fold_acc_.resize(n);
      }
    }
    run_records_buffered_ = 0;
    if (options_.profile_push_replay) {
      profile_ = PushReplayProfile{};
    }

    const bool static_frontier = StaticFrontierAfterFirst(program);
    LoopState loop;
    // Any seed set beyond a handful of sources can only have come from an
    // init kernel scanning the metadata — k-Core's all-underfull-vertices
    // seed, PageRank's and BP's all-vertices seed — so it is attributed
    // (and charged) as a ballot pass on the first iteration. This is why
    // Figure 8 shows k-Core/PR/BP activating the ballot filter at the
    // initial iteration(s).
    if (frontier.size() > options_.overflow_threshold) {
      loop.pending_filter = 'B';
      loop.charge_init_scan = true;
    }
    if (control.resume != nullptr) {
      // Restore AFTER the full normal arming above: InitialFrontier() and
      // the stamp fills have reset every piece of scratch and program state,
      // so the snapshot overwrites exactly the loop-carried state and
      // nothing else — the invariant that makes a resumed run bit-identical
      // to an uninterrupted one.
      if (!RestoreCheckpoint(*control.resume, program, meta, frontier, jit,
                             fusion, result.stats, &loop)) {
        result.stats.outcome = RunOutcome::kFaulted;
        result.values.assign(meta.values().begin(), meta.values().end());
        DisarmControl();
        return result;
      }
      result.stats.resumes += 1;
      result.stats.resume_iteration = loop.iter;
    }
    for (; loop.iter < options_.max_iterations; ++loop.iter) {
      if (IterationControl(program, meta, frontier, jit, fusion, result.stats,
                           loop)) {
        break;
      }
      if (frontier.empty()) {
        // Programs with deferred work (delta-stepping SSSP) may refill the
        // frontier from their pending buckets; everything else terminates.
        frontier = Refill(program);
        if (frontier.empty()) {
          break;
        }
        loop.frontier_sorted = false;
        loop.refill_words = 2ull * frontier.size();
      }
      IterationInfo info;
      info.iteration = loop.iter;
      info.frontier_size = frontier.size();
      // Lazy classification: the Thread/Warp/CTA bins are only consumed by
      // push iterations, but the direction heuristic needs the frontier's
      // out-edge sum before the direction is known. Predict this iteration's
      // direction from the previous one (deterministic — prev_dir is part of
      // the simulated state): on a predicted push, one fused walk produces
      // the degree sum AND the bins; on a predicted pull, the cheaper
      // sum-only walk runs and a misprediction pays one extra classification
      // pass below. Classification is never charged to the simulated
      // counters, so none of this changes any statistic — it only stops
      // pull-heavy runs from building bins they discard.
      bool lists_ready = false;
      if (options_.classify_worklists &&
          (loop.prev_dir == Direction::kPush || options_.force_push)) {
        info.frontier_out_edges =
            classifier_.Classify(frontier, graph_, options_.small_degree_limit,
                                 options_.medium_degree_limit, pool_,
                                 host_threads_);
        lists_ready = true;
      } else {
        info.frontier_out_edges =
            classifier_.OutEdgeSum(frontier, graph_, pool_, host_threads_);
      }
      info.vertex_count = graph_.vertex_count();
      info.edge_count = graph_.edge_count();
      info.previous_direction = loop.prev_dir;
      if (program.Converged(info)) {
        break;
      }
      const Direction dir = options_.force_push ? Direction::kPush
                            : options_.force_pull
                                ? Direction::kPull
                                : program.ChooseDirection(info);
      stamp_ = loop.iter + 1;

      CostCounters it_cost;
      it_cost.coalesced_words += loop.refill_words;
      loop.refill_words = 0;
      if (loop.charge_init_scan) {
        it_cost.coalesced_words += 2ull * n + frontier.size();
        it_cost.alu_ops += n;
        loop.charge_init_scan = false;
      }
      uint64_t edges_processed = 0;
      if (dir == Direction::kPush) {
        if (options_.classify_worklists) {
          if (!lists_ready) {
            // Direction mispredicted (previous iteration pulled): build the
            // bins now. Uncharged, so the stats stay identical to the old
            // always-classify walk.
            classifier_.Classify(frontier, graph_, options_.small_degree_limit,
                                 options_.medium_degree_limit, pool_,
                                 host_threads_);
          }
          const WorkLists& lists = classifier_.result();
          edges_processed =
              ProcessPush(program, meta, lists.Views(), loop.frontier_sorted,
                          info.frontier_out_edges, jit, it_cost);
          last_stage_count_ = (lists.small.empty() ? 0u : 1u) +
                              (lists.medium.empty() ? 0u : 1u) +
                              (lists.large.empty() ? 0u : 1u);
        } else {
          // Thread-per-vertex scheduling: a warp stalls until its slowest
          // lane (largest adjacency) finishes — charge the idle-lane cycles.
          it_cost.alu_ops += DivergencePenalty(frontier);
          const std::array<WorkListView, 1> whole = {
              ViewOf(frontier, KernelClass::kThread)};
          edges_processed =
              ProcessPush(program, meta, whole, loop.frontier_sorted,
                          info.frontier_out_edges, jit, it_cost);
          last_stage_count_ = frontier.empty() ? 0u : 1u;
        }
      } else {
        edges_processed = ProcessPull(program, meta, jit, it_cost);
        // Every contributor's pending activity has now been read by all of
        // its out-neighbors: consume it (residual-carrying programs subtract
        // the consumed amount; others are no-ops). Frontiers are duplicate-
        // free (recorded_stamp_ guarantees at-most-once recording), so the
        // per-vertex consumes are independent.
        ConsumeFrontier(program, meta, frontier);
        last_stage_count_ = 3;
      }

      // A mid-stage break (collect/replay/apply fault, cancellation inside a
      // drain) surfaces here before the filter stage touches shared state.
      if (StageBreak(FaultPoint::kFrontier)) {
        break;
      }

      const char filter_char = loop.pending_filter;
      if (static_frontier) {
        // Frontier provably unchanged (e.g. belief propagation: every vertex
        // stays active); reuse it without running any filter.
        CommitPrev(meta, frontier, dir, edges_processed);
        loop.pending_filter = '=';
      } else {
        const auto active = [&](VertexId v) {
          return program.Active(meta.curr(v), meta.prev(v));
        };
        jit.BuildNextFrontierInto(n, active, it_cost, next_frontier_);
        loop.pending_filter = jit.pattern().back();
        if (jit.failed()) {
          result.stats.failed = true;
        }
        // Frontier committed: "changed" restarts from this snapshot.
        CommitPrev(meta, frontier, dir, edges_processed);
        loop.frontier_sorted = loop.pending_filter == 'B';
        // Swap instead of move: the displaced buffer becomes next
        // iteration's output scratch, so the steady state allocates nothing.
        frontier.swap(next_frontier_);
      }

      const FusionAccountant::IterationCharge charge =
          fusion.ChargeIteration(device_, dir, loop.iter, last_stage_count_);
      it_cost.kernel_launches += charge.launches;
      it_cost.barrier_crossings += charge.barrier_crossings;
      for (uint64_t b = 0; b < charge.barrier_crossings; ++b) {
        barrier.ArriveAndDepartAll();
      }

      const SimTime t =
          EstimateTime(it_cost, device_, EffectiveOccupancy(charge.occupancy));
      result.stats.counters += it_cost;
      result.stats.time.cycles += t.cycles;
      result.stats.time.ms += t.ms;
      result.stats.serial_ms +=
          (static_cast<double>(it_cost.kernel_launches) * device_.kernel_launch_cycles +
           static_cast<double>(it_cost.barrier_crossings) * device_.barrier_cycles) /
          (device_.clock_ghz * 1e6);
      result.stats.total_active += info.frontier_size;
      result.stats.total_edges_processed += edges_processed;
      result.stats.direction_pattern += dir == Direction::kPush ? 'p' : 'P';
      result.stats.filter_pattern += filter_char;
      if (options_.keep_iteration_log) {
        result.stats.iteration_logs.push_back(IterationLog{
            loop.iter, info.frontier_size, edges_processed, filter_char,
            dir == Direction::kPush ? 'p' : 'P', t.ms});
      }
      loop.prev_dir = dir;
      if (result.stats.failed) {
        break;
      }
    }

    result.stats.iterations = loop.iter;
    result.stats.converged = loop.iter < options_.max_iterations &&
                             !result.stats.failed && !control_break_;
    result.stats.push_records_buffered = run_records_buffered_;
    result.stats.outcome = control_break_ ? break_outcome_
                           : control.resume != nullptr ? RunOutcome::kResumed
                                                       : RunOutcome::kCompleted;
    result.values.assign(meta.values().begin(), meta.values().end());
    DisarmControl();
    return result;
  }

  // Host wall-clock collect/replay telemetry; populated only when
  // EngineOptions::profile_push_replay is set, and valid after Run().
  const PushReplayProfile& push_profile() const { return profile_; }

 private:
  // Seeds curr and prev with InitValue — the one place prev is seeded, so
  // prev == curr holds from the first iteration on. First-touch: the arrays
  // are written through ParallelFor (same values as the serial loop) so
  // their pages fault in on pool threads.
  VertexMeta<Value> MakeMetadata(const Program& program) const {
    return VertexMeta<Value>(
        static_cast<VertexId>(graph_.vertex_count()),
        [&](VertexId v) { return program.InitValue(v); }, pool_,
        host_threads_);
  }

  // The frontier commit: prev catches up with curr. A push iteration writes
  // curr only at the destinations of its `records` records (the pre-combined
  // apply writes a subset of them) and, for a program with ConsumeActivity,
  // at its frontier's sources; when those number at most
  // |V| / kSparseCommitDivisor, the commit copies just them (a vertex listed
  // twice is copied twice, harmlessly). Every other iteration — pull, a wide
  // push — copies all of curr. Given prev == curr at the iteration's start,
  // both leave prev == curr, and neither keeps state across iterations.
  void CommitPrev(VertexMeta<Value>& meta, const std::vector<VertexId>& frontier,
                  Direction dir, uint64_t records) {
    const uint64_t consumed = kHasConsume ? frontier.size() : 0;
    if (dir == Direction::kPush &&
        records + consumed <= meta.size() / kSparseCommitDivisor) {
      for (uint64_t i = 0; i < records; ++i) {
        meta.SyncPrev(push_dst_[i]);
      }
      if constexpr (kHasConsume) {
        for (const VertexId v : frontier) {
          meta.SyncPrev(v);
        }
      }
      return;
    }
    meta.SyncPrev(pool_, host_threads_);
  }

  static bool StaticFrontierAfterFirst(const Program& program) {
    if constexpr (requires(const Program& p) { p.StaticFrontierAfterFirst(); }) {
      return program.StaticFrontierAfterFirst();
    }
    return false;
  }

  // Optional hook: programs with bucketed/deferred scheduling refill the
  // frontier when it drains (delta-stepping SSSP's next bucket).
  static std::vector<VertexId> Refill(const Program& program) {
    if constexpr (requires(const Program& p) {
                    { p.RefillFrontier() } -> std::same_as<std::vector<VertexId>>;
                  }) {
      return program.RefillFrontier();
    }
    return {};
  }

  // Optional hook: programs carrying explicit activity (e.g. delta-PageRank
  // residuals) define ConsumeActivity(curr, prev, dir) returning the value
  // after the pending activity has been handed to the neighbors. Gated on
  // kHasConsume — the same probe that picks the drain's list-cursor walk —
  // so the two can never drift apart.
  static void Consume(const Program& program, VertexMeta<Value>& meta, VertexId v,
                      Direction dir) {
    if constexpr (kHasConsume) {
      meta.curr(v) = program.ConsumeActivity(meta.curr(v), meta.prev(v), dir);
    }
  }

  size_t DeviceBytesNeeded(CombineKind kind) const {
    const size_t v = graph_.vertex_count();
    size_t bytes = graph_.CsrFootprintBytes();
    bytes += 2 * v * sizeof(Value);          // metadata curr + prev
    bytes += 2 * v * sizeof(VertexId);       // double-buffered worklists
    if (options_.filter == FilterPolicy::kBatch) {
      if (kind == CombineKind::kVote) {
        // Idempotent traversal (BFS class): (src, dst) pairs, one buffer.
        bytes += static_cast<size_t>(graph_.edge_count()) * 2 * sizeof(VertexId);
      } else {
        // Weighted aggregation (SSSP class) keeps weighted triples double-
        // buffered — "up to 2*|E| memory space" (Section 4), the reason
        // Gunrock's SSSP OOMs on the larger graphs of Table 4 while its BFS
        // does not.
        bytes += BatchFilterFootprintBytes(graph_);
      }
    } else {
      bytes += static_cast<size_t>(options_.sim_worker_threads) *
               options_.overflow_threshold * sizeof(VertexId);  // thread bins
    }
    return bytes;
  }

  // SIMD idle-lane cycles when 32 consecutive frontier vertices share a warp
  // without degree classification: every lane waits for the group maximum.
  uint64_t DivergencePenalty(const std::vector<VertexId>& frontier) const {
    uint64_t penalty = 0;
    for (size_t base = 0; base < frontier.size(); base += 32) {
      const size_t end = std::min(frontier.size(), base + 32);
      uint64_t max_deg = 0;
      uint64_t sum_deg = 0;
      for (size_t i = base; i < end; ++i) {
        const uint64_t d = graph_.OutDegree(frontier[i]);
        max_deg = std::max(max_deg, d);
        sum_deg += d;
      }
      // Half of the idle-lane cycles hide behind the group's memory
      // latency; the rest stall the warp's issue slots.
      penalty += (max_deg * (end - base) - sum_deg) / 2;
    }
    return penalty;
  }

  // Records v into the online bins when it acquired unconsumed activity this
  // iteration (at most once per iteration — the thread that performed the
  // activating update owns the record).
  void MaybeRecord(const Program& program, const VertexMeta<Value>& meta,
                   VertexId v, uint32_t worker, JitController& jit,
                   CostCounters& cost) {
    if (recorded_stamp_[v] == stamp_) {
      return;
    }
    if (program.Active(meta.curr(v), meta.prev(v))) {
      recorded_stamp_[v] = stamp_;
      jit.RecordActivation(worker, v, cost);
    }
  }

  // Program capabilities the push drain specializes on.
  static constexpr bool kHasConsume =
      requires(const Program& p, const Value& val) {
        { p.ConsumeActivity(val, val, Direction::kPush) } -> std::same_as<Value>;
      };

  // Optional saturation hook for pull gathers (see PullRange): a program
  // whose Combine is monotone-idempotent can certify mid-gather that the
  // accumulated value already determines Apply's output, letting the scan
  // stop early — the aggregation-kind sibling of the kVote early exit.
  static constexpr bool kHasPullSaturated =
      requires(const Program& p, typename Program::Value v) {
        { p.PullSaturated(v, v) } -> std::same_as<bool>;
      };

  // Programs with scheduler state beyond the frontier (delta-stepping SSSP's
  // pending buckets) opt into checkpointing it via this hook pair. Restore
  // gets the graph's vertex count so it can reject out-of-range vertex ids
  // in an untrusted snapshot before they index anything.
  static constexpr bool kHasProgramState =
      requires(const Program& p, std::vector<uint8_t>& out, const uint8_t* d,
               size_t n, uint64_t vertex_count) {
        p.SaveSchedulerState(out);
        { p.RestoreSchedulerState(d, n, vertex_count) } -> std::same_as<bool>;
      };

  // The iteration loop's carried state besides metadata, frontier, stats
  // and the jit/fusion history — exactly what a checkpoint must restore.
  struct LoopState {
    uint32_t iter = 0;
    Direction prev_dir = Direction::kPush;
    bool frontier_sorted = true;  // the initial frontier comes in id order
    // Producer of the CURRENT iteration's frontier (Figure 8 logs the
    // filter per executed iteration).
    char pending_filter = 'O';
    bool charge_init_scan = false;
    uint64_t refill_words = 0;
  };

  // One destination first touched by the pre-combined fold pass, with the
  // simulated worker lane of its first record (owner of the filter bin the
  // activation lands in, mirroring the per-record drain's convention).
  struct FoldTouch {
    VertexId dst;
    uint32_t worker;
  };

  // Per-chunk scratch for the parallel pull phase, reused across iterations.
  struct PullScratch {
    CostCounters cost;
    uint64_t edges = 0;
    std::vector<std::pair<VertexId, Value>> updates;
  };

  static double NowMs() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // --- control plane (engine_control.h) ---
  void DisarmControl();
  bool CancelOrDeadline();
  bool StageBreak(FaultPoint point);
  bool IterationControl(const Program& program, const VertexMeta<Value>& meta,
                        const std::vector<VertexId>& frontier,
                        const JitController& jit,
                        const FusionAccountant& fusion, RunStats& stats,
                        const LoopState& loop);
  bool WriteCheckpoint(const Program& program, const VertexMeta<Value>& meta,
                       const std::vector<VertexId>& frontier,
                       const JitController& jit,
                       const FusionAccountant& fusion, RunStats& stats,
                       const LoopState& loop);
  bool RestoreCheckpoint(const Checkpoint& cp, const Program& program,
                         VertexMeta<Value>& meta,
                         std::vector<VertexId>& frontier, JitController& jit,
                         FusionAccountant& fusion, RunStats& stats,
                         LoopState* state);

  // --- push (engine_push.h) ---
  uint64_t ProcessPush(const Program& program, VertexMeta<Value>& meta,
                       std::span<const WorkListView> views, bool frontier_sorted,
                       uint64_t frontier_out_edges, JitController& jit,
                       CostCounters& cost);
  uint64_t CollectPush(const Program& program, const VertexMeta<Value>& meta,
                       const WorkListView& view, bool frontier_sorted,
                       bool parallel, uint64_t slot, CostCounters& cost);
  CostCounters CollectPushRange(const Program& program,
                                const VertexMeta<Value>& meta,
                                const WorkListView& view, bool frontier_sorted,
                                size_t begin, size_t end, uint64_t& slot);
  uint64_t Drain(const Program& program, VertexMeta<Value>& meta,
                 std::span<const WorkListView> views, uint64_t records,
                 JitController& jit, CostCounters& cost);
  void FoldRecord(const Program& program, VertexId u, uint32_t worker,
                  const Value& cand);
  // Forced inline: left to the compiler, the drain pays a call per record
  // and runs up to ~1.5x slower (push_replay, 1 thread).
  [[gnu::always_inline]] inline void ReplayRecord(
      const Program& program, VertexMeta<Value>& meta, VertexId u,
      uint32_t worker, const Value& cand, JitController& jit,
      CostCounters& cost);
  static uint32_t WorkerFor(size_t list_idx, uint32_t edge_idx,
                            KernelClass klass, uint32_t workers);

  // --- pull (engine_pull.h) ---
  uint64_t ProcessPull(const Program& program, VertexMeta<Value>& meta,
                       JitController& jit, CostCounters& cost);
  template <typename OnUpdate>
  void PullRange(const Program& program, const VertexMeta<Value>& meta,
                 VertexId vbegin, VertexId vend, CostCounters& cost,
                 uint64_t& edges, OnUpdate&& on_update) const;
  void ApplyPullUpdate(const Program& program, VertexMeta<Value>& meta,
                       VertexId v, const Value& combined, JitController& jit,
                       CostCounters& cost);
  void ConsumeFrontier(const Program& program, VertexMeta<Value>& meta,
                       const std::vector<VertexId>& frontier);
  const Graph& graph_;
  DeviceSpec device_;
  EngineOptions options_;
  ThreadPool* pool_ = nullptr;
  uint32_t host_threads_ = 1;
  // Iteration-loop scratch, owned by the engine so the steady state of the
  // hot loop performs no heap allocation.
  FrontierClassifier classifier_;
  std::vector<VertexId> next_frontier_;
  std::vector<PullScratch> pull_scratch_;
  // The push record stream (engine_push.h): struct-of-arrays lanes holding
  // one record per frontier out-edge, where a record's index is its slot in
  // the serial order. The lanes only grow, at least doubling (GrowLane), so
  // they hold the largest push iteration this engine has run and less than
  // twice that; entries past an iteration's record count are stale. The
  // frontier commit (CommitPrev) reads push_dst_ as the iteration's write
  // set. NumaVector growth writes nothing into a trivial lane (dst, worker,
  // and cand for a trivial Value), so the collecting pool threads
  // first-touch their slices.
  NumaVector<VertexId> push_dst_;
  NumaVector<Value> push_cand_;
  NumaVector<uint32_t> push_worker_;
  // Per-chunk collect scratch for a list split over several chunks: each
  // chunk's first slot and its simulated charges.
  std::vector<uint64_t> chunk_slot_;
  std::vector<CostCounters> chunk_cost_;
  // Iteration-stamped "already recorded" marks (avoids duplicate bin
  // entries; the real system tolerates duplicates, our sequential apply
  // makes exactly-once recording the natural semantics).
  NumaVector<uint32_t> recorded_stamp_;
  // Same-iteration destination-touch marks for atomic-contention accounting
  // (only allocated when use_atomic_updates is set).
  NumaVector<uint32_t> touch_stamp_;
  uint32_t stamp_ = 0;
  uint32_t last_stage_count_ = 0;
  // Per-run decision (Run): associative pre-combining armed — option on AND
  // the program declared CombineCapability::kAssociativeOnly.
  bool pre_combine_ = false;
  // Push records buffered across the run's push iterations (copied into
  // RunStats at the end of Run).
  uint64_t run_records_buffered_ = 0;
  // Pre-combined drain state: per-vertex fold accumulators guarded by an
  // iteration stamp, and the destinations the current fold touched, in
  // first-touch order. Allocated only when pre_combine_ is armed.
  NumaVector<uint32_t> fold_stamp_;
  std::vector<Value> fold_acc_;
  std::vector<FoldTouch> fold_touched_;
  PushReplayProfile profile_;
  // --- control plane (valid during Run; DisarmControl nulls the pointers).
  const RunControl* control_ = nullptr;
  CancelToken* cancel_ = nullptr;
  double deadline_ms_ = 0.0;  // absolute NowMs()-based; 0 = none
  FaultRegistry* faults_ = nullptr;
  bool watch_cancel_ = false;
  // Set by the first cancellation/deadline/fault observation; the loop
  // breaks at the next stage boundary with break_outcome_ as the verdict.
  bool control_break_ = false;
  RunOutcome break_outcome_ = RunOutcome::kCompleted;
};

}  // namespace simdx

#include "core/engine_control.h"
#include "core/engine_pull.h"
#include "core/engine_push.h"

#endif  // SIMDX_CORE_ENGINE_H_
