// GraphService: a resident, fault-isolated query service over one immutable
// CSR. Many concurrent clients Submit() typed queries (BFS / SSSP / PPR /
// k-Core from arbitrary sources); a fixed worker pool drains a bounded
// admission queue and answers each query with a one-shot-equivalent result:
// for every admitted, un-faulted query the StatsFingerprint is bit-identical
// to a fresh Engine::Run of the same program — queries never observe each
// other, no matter how many ran before or beside them on the same reused
// engine arenas.
//
// Robustness model, layer by layer:
//   * ADMISSION — malformed queries (bad source, k == 0, unparseable fault
//     spec) are rejected before they can reach the engine, whose own spec
//     parse failure aborts the process. The queue is bounded: at capacity,
//     new work is shed (kShedQueueFull), never buffered unboundedly.
//   * DEADLINES — end-to-end from Submit. Admission sheds predictively when
//     the backlog estimate (per-kind EWMA of run time x queue depth / worker
//     count) already exceeds the deadline; queued queries whose deadline
//     lapses come back kDeadlineExceeded without running; survivors run
//     under the REMAINING budget via RunControl::time_budget_ms.
//   * CONTAINMENT — each query runs under its own RunControl with a bounded
//     RobustRun retry loop. A query armed with faults (its own spec, or the
//     process-wide SIMDX_FAULTS registry) returns kFaulted or succeeds via
//     retry; every other in-flight query completes clean.
//   * THROUGHPUT — two opt-in layers make service throughput scale with
//     USERS rather than cores. Dispatch-side batching (batch_max > 1):
//     a worker coalesces queued fault-free BFS queries into one bit-parallel
//     multi-source run (algos/msbfs.h) and demuxes per-query answers from
//     the settle-time level table; deadlines, cancellation-at-dispatch and
//     fault containment survive coalescing (a faulted batch retries via the
//     same RobustRun loop), and every demuxed answer is value-bit-equal to
//     its one-shot oracle. A result cache (cache_capacity > 0, cache.h)
//     answers repeat questions inside Submit without touching an arena.
//     What a coalesced batch costs, measured in serve-hot's saturation
//     phase (R-MAT 14, 2 workers, 4-vCPU host, seed 11, three runs: 496-550
//     batches of 15-17 members on average in 3 s): per batch, a median
//     5.3-6.2 ms of traversal, 2.1-3.1 ms of snapshots and 0.4-0.6 ms of
//     demux. Snapshots are the RobustRun checkpoints every checkpoint_every
//     iterations, two per batch here. Writing one costs about 0.1 ms (the
//     level table goes in as one byte span); the rest is its two CRC
//     passes, Seal's and the sink's Validate, 0.5-0.75 ms each, and the
//     sink then moves the snapshot instead of copying it. The demux is one
//     sweep over the level table (DemuxLanes): it advances every lane's
//     digest and writes out only the lanes a member or the cache needs, and
//     those bytes move into the member's result and on into the cache. A
//     digest-only cache hit copies no value bytes.
//   * OVERLOAD — a one-rung shedding ladder keyed on queue occupancy: at
//     75% the deadline-admission estimate must fit the deadline twice over
//     (strict admission), and below 50% admission steps back down. Each
//     transition is recorded as a DowngradeEvent (core/result.h).
//
// One host thread per query. The workers are the service's parallelism, so
// the constructor pins engine.host_threads to 1: a query runs on the worker
// thread that dequeued it and never submits to the shared ThreadPool, whose
// one submission lock would otherwise make concurrent queries take turns.
// Measured on a 4-vCPU host with the e2e serve workloads (R-MAT scale 14,
// 2 workers, medians of 6 runs per setting), one thread was never slower
// under load: serve-mixed's heavy-rate p90 was 9.6 ms at 1 host thread and
// 11.6-13.8 ms at 2 or 4, serve-hot's saturation throughput 17.5k ops/s
// against 13.0k-13.7k, and at 2 or 4 threads 10-34% of saturation-phase
// pool submits found the lock held. What one thread gives up is latency on
// an idle service: with one query outstanding, SSSP took 6.2-6.8 ms at 4
// threads against 8.8-9.7 ms at 1, and BFS, PPR and k-Core were 10-20%
// faster at 4. No serve workload is idle.
#ifndef SIMDX_SERVICE_SERVICE_H_
#define SIMDX_SERVICE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/control.h"
#include "core/fault.h"
#include "core/options.h"
#include "graph/graph.h"
#include "service/cache.h"
#include "service/query.h"
#include "simt/device.h"

namespace simdx::service {

struct ServiceOptions {
  uint32_t workers = 2;          // query worker threads (>= 1)
  uint32_t queue_capacity = 64;  // bounded admission queue (>= 1)
  // Engine configuration shared by every per-worker arena; host_threads is
  // pinned to 1 (one host thread per query, above). Faults arrive per query
  // (Query::fault_spec) or via the SIMDX_FAULTS env registry.
  EngineOptions engine;
  DeviceSpec device = MakeK40();
  uint32_t checkpoint_every = 4;     // RobustRun snapshot cadence (0 = never)
  uint32_t default_max_attempts = 2; // when Query::max_attempts == 0
  // Dispatch-side batching: a worker popping a fault-free BFS query also
  // claims up to batch_max - 1 more fault-free BFS queries from the queue
  // and answers them all with ONE bit-parallel multi-source run (MS-BFS
  // lane masks), demuxing per-query results at settle time. Clamped to 64
  // (the lane width). Default 1 = off: coalescing changes the per-query
  // run telemetry (members share the batch's RunStats), so the solo
  // one-shot fingerprint contract stays the default and throughput-minded
  // callers opt in. Fault-armed queries never batch — their containment
  // story is per-query by design.
  uint32_t batch_max = 1;
  // Result cache entries (0 = off). Keyed on (kind, source, params, graph
  // version); hits resolve inside Submit without touching a worker arena.
  size_t cache_capacity = 0;
  // Start with dispatch paused: Submit admits and queues, but no worker
  // picks anything up until Resume(). Lets tests and benches compose a
  // queue deterministically and then watch one dispatch decision (e.g. "do
  // these 48 queries coalesce into one batch?"). Shutdown auto-resumes.
  bool start_paused = false;
};

class GraphService {
 public:
  // What Submit hands back. The future is valid ONLY when
  // verdict == kAdmitted; it resolves when the query reaches a terminal
  // outcome (including cancellation and in-queue deadline expiry).
  struct Ticket {
    AdmissionVerdict verdict = AdmissionVerdict::kRejectedInvalid;
    uint64_t query_id = 0;
    std::future<QueryResult> result;
  };

  // The graph must outlive the service and is never mutated.
  GraphService(const Graph& graph, ServiceOptions options);
  ~GraphService();

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  // Thread-safe, non-blocking: sheds instead of waiting.
  Ticket Submit(const Query& query);

  // Requests cancellation of a pending or running query. Returns false when
  // the id is unknown or already terminal. The query's future still
  // resolves (kCancelled, or its natural outcome if it won the race).
  bool Cancel(uint64_t query_id);

  // Releases a start_paused service's workers. Idempotent. A paused service
  // must be resumed before Drain() can return (Shutdown resumes for you).
  void Resume();

  // Bumps the graph-version epoch and purges the result cache when the
  // version actually changes: entries keyed under the old version can never
  // be served again. The CSR itself is immutable — this models the epoch a
  // graph-reload control plane would own.
  void SetGraphVersion(uint64_t version);
  uint64_t graph_version() const;

  // Blocks until every admitted query has reached a terminal outcome.
  void Drain();

  // Drains, then stops and joins the workers. Idempotent; the destructor
  // calls it.
  void Shutdown();

  ServiceStats stats() const;
  const Graph& graph() const { return graph_; }

 private:
  struct Task;
  struct WorkerArena;

  void WorkerLoop(uint32_t worker_index);
  void RunTask(Task& task, WorkerArena& arena);
  // Coalesced dispatch: answers every batch member from one multi-source
  // run (falls back to RunTask for an effective batch of one, so singleton
  // "batches" keep the solo fingerprint contract).
  void RunBatch(std::vector<std::unique_ptr<Task>>& batch, WorkerArena& arena);
  // Ledger bookkeeping for one retired result; caller holds mu_.
  void CountOutcomeLocked(const QueryResult& result, bool ran);
  // True when `result` is an answer the cache keeps (cache on, no per-query
  // faults, a clean first attempt).
  bool FillsCache(const Task& task, const QueryResult& result) const;
  // Fills the cache from `result`, moving its value bytes in when the
  // client did not ask for them.
  void MaybeCacheFillLocked(const Task& task, QueryResult& result);
  // Overload-rung transition; callers hold mu_.
  void StepLadderLocked();
  double EwmaMsLocked(QueryKind kind) const;

  const Graph& graph_;
  const ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable drain_cv_;  // Drain/Shutdown: all work retired
  std::deque<std::unique_ptr<Task>> queue_;
  // Pending + running tasks by id, for Cancel. Entries are erased when the
  // task retires.
  std::vector<std::pair<uint64_t, std::shared_ptr<CancelToken>>> live_;
  uint64_t next_query_id_ = 1;
  uint32_t in_flight_ = 0;  // dequeued, not yet retired
  bool stopping_ = false;
  bool paused_ = false;
  bool strict_admission_ = false;  // overload rung 1 engaged
  ServiceStats stats_;
  // Per-kind EWMA of run_ms (0 = no sample yet), feeding predictive
  // deadline shedding. One sample per engine RUN, not per query: a batch
  // contributes its wall time once, so the estimator prices a queue of 48
  // coalescible BFS queries as ceil(48 / batch_max) runs instead of 48 —
  // without this, warmup-priced per-query estimates over-shed exactly the
  // queries batching makes cheap.
  //
  // Both arrays are indexed by static_cast<uint8_t>(kind), which admission
  // bound-guards (IsValidQueryKind) before anything else — a kind byte
  // decoded off the wire or cast by a caller is kRejectedInvalid, never an
  // index. The sizes are pinned to the enum's sentinel so adding a kind
  // without growing them cannot compile.
  double ewma_ms_[kQueryKindCount] = {};
  static_assert(sizeof(ewma_ms_) / sizeof(double) ==
                    static_cast<size_t>(QueryKind::kCount),
                "per-kind EWMA table must cover every QueryKind");
  // Queued (not yet dequeued) queries per kind, for the batch-aware
  // backlog estimate above.
  uint64_t queued_by_kind_[kQueryKindCount] = {};
  static_assert(sizeof(queued_by_kind_) / sizeof(uint64_t) ==
                    static_cast<size_t>(QueryKind::kCount),
                "per-kind backlog table must cover every QueryKind");
  uint64_t graph_version_ = 0;
  ResultCache cache_;

  std::vector<std::thread> workers_;
};

}  // namespace simdx::service

#endif  // SIMDX_SERVICE_SERVICE_H_
