#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "algos/algos.h"
#include "core/engine.h"
#include "core/fingerprint.h"
#include "core/robust.h"

namespace simdx::service {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// EWMA weight for per-kind run-time estimates: heavy enough on history to
// ride out a single outlier, fresh enough to track a shifting mix.
constexpr double kEwmaAlpha = 0.2;

// Overload rung 1 (strict deadline admission) engages at this queue
// occupancy and steps back down below kLowWater.
constexpr double kHighWater = 0.75;
constexpr double kLowWater = 0.5;

}  // namespace

// One admitted query, owned by the queue until a worker retires it.
struct GraphService::Task {
  uint64_t id = 0;
  Query query;
  std::promise<QueryResult> promise;
  std::shared_ptr<CancelToken> cancel;
  // Per-query armed faults (parsed and validated at admission); nullptr
  // means "no per-query faults" and lets the engine fall back to the
  // process-wide SIMDX_FAULTS registry.
  std::unique_ptr<FaultRegistry> faults;
  double submit_ms = 0.0;
  double deadline_abs_ms = 0.0;  // 0 = no deadline
  uint32_t max_attempts = 1;
};

// Per-worker engine arenas: one lazily built engine per query kind so a
// query reuses warmed scratch from its predecessors on this worker — the
// zero-steady-state-allocation property the engine already guarantees across
// Run() calls — while never sharing mutable state with another worker.
struct GraphService::WorkerArena {
  std::unique_ptr<Engine<BfsProgram>> bfs;
  std::unique_ptr<Engine<SsspProgram>> sssp;
  std::unique_ptr<Engine<PprProgram>> ppr;
  std::unique_ptr<Engine<KCoreProgram>> kcore;
  // Coalesced-dispatch lane: the multi-source engine plus its reusable
  // level-table state (one allocation amortized across every batch this
  // worker runs).
  std::unique_ptr<Engine<MsBfsProgram>> msbfs;
  MsBfsState msbfs_state;
};

namespace {

// keep_values: copy the raw output into value_bytes even when the client
// did not ask for them — the retirement path needs the bytes to fill the
// result cache (and strips them again before handing the result back).
template <AccProgram Program>
void RunInArena(std::unique_ptr<Engine<Program>>& slot, const Graph& graph,
                const DeviceSpec& device, const EngineOptions& engine_options,
                const Program& program, const RobustRunOptions& run_options,
                bool keep_values, QueryResult* out) {
  if (!slot) {
    slot = std::make_unique<Engine<Program>>(graph, device, engine_options);
  }
  const auto r = RobustRun(*slot, program, run_options);
  out->outcome = r.stats.outcome;
  out->attempts = r.stats.attempts;
  out->stats = r.stats;
  if (r.stats.ok()) {
    const size_t bytes = r.values.size() * sizeof(typename Program::Value);
    out->value_fingerprint = ValueBytesFingerprint(r.values.data(), bytes);
    out->fingerprint = StatsFingerprint(r, out->value_fingerprint);
    if (keep_values) {
      out->value_bytes.resize(bytes);
      if (bytes > 0) {
        std::memcpy(out->value_bytes.data(), r.values.data(), bytes);
      }
    }
  }
}

}  // namespace

GraphService::GraphService(const Graph& graph, ServiceOptions options)
    : graph_(graph), options_([&] {
        ServiceOptions o = std::move(options);
        o.workers = std::max(1u, o.workers);
        o.queue_capacity = std::max(1u, o.queue_capacity);
        // One machine word of lanes bounds a batch.
        o.batch_max = std::clamp(o.batch_max, 1u, 64u);
        // One host thread per query (see the header).
        o.engine.host_threads = 1;
        return o;
      }()),
      paused_(options_.start_paused),
      cache_(options_.cache_capacity) {
  workers_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

GraphService::~GraphService() { Shutdown(); }

GraphService::Ticket GraphService::Submit(const Query& query) {
  Ticket ticket;
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    // The queue is closed; from the client's view that is a full queue.
    ++stats_.shed_queue_full;
    ticket.verdict = AdmissionVerdict::kShedQueueFull;
    return ticket;
  }

  // --- Validation: nothing malformed may reach the engine. The kind bound
  // guard runs FIRST: every later step (cache key, EWMA, queued_by_kind_)
  // indexes per-kind arrays by this byte, and wire-decoded requests hand it
  // over untrusted — an out-of-range kind must die here as a typed verdict.
  bool valid = IsValidQueryKind(static_cast<uint8_t>(query.kind));
  if (valid && query.kind != QueryKind::kKCore &&
      query.source >= graph_.vertex_count()) {
    valid = false;
  }
  if (query.kind == QueryKind::kKCore && query.k == 0) {
    valid = false;
  }
  std::unique_ptr<FaultRegistry> faults;
  if (valid && !query.fault_spec.empty()) {
    faults = std::make_unique<FaultRegistry>();
    std::string error;
    if (!FaultRegistry::Parse(query.fault_spec, faults.get(), &error)) {
      valid = false;
    }
  }
  if (!valid) {
    ++stats_.rejected_invalid;
    ticket.verdict = AdmissionVerdict::kRejectedInvalid;
    return ticket;
  }

  // --- Result cache: a hit is a complete answer — resolve it inline,
  // before backpressure can shed it (serving from memory costs no arena, so
  // overload is no reason to say no). Fault-armed queries bypass the cache
  // both ways: their contract is "this specific run faults or survives".
  if (options_.cache_capacity > 0 && faults == nullptr) {
    CacheKey key;
    key.kind = static_cast<uint8_t>(query.kind);
    key.source = query.kind == QueryKind::kKCore ? 0 : query.source;
    key.params_hash = query.kind == QueryKind::kKCore ? query.k : 0;
    key.graph_version = graph_version_;
    CachedAnswer hit;
    if (cache_.Lookup(key, query.want_values, &hit)) {
      ++stats_.cache_hits;
      ++stats_.admitted;   // an answered query is an admitted query
      ++stats_.completed;  // ...and a completed one: the ledger identities
                           // hold without a special cache row.
      QueryResult result;
      result.query_id = next_query_id_++;
      result.kind = query.kind;
      result.served = ServedBy::kCache;
      result.outcome = RunOutcome::kCompleted;
      result.attempts = 0;  // no engine run was launched
      result.fingerprint = std::move(hit.fingerprint);
      result.value_fingerprint = hit.value_fingerprint;
      result.stats = std::move(hit.stats);
      result.value_bytes = std::move(hit.value_bytes);  // want_values only
      ticket.verdict = AdmissionVerdict::kAdmitted;
      ticket.query_id = result.query_id;
      std::promise<QueryResult> promise;
      ticket.result = promise.get_future();
      promise.set_value(std::move(result));
      return ticket;
    }
    ++stats_.cache_misses;
  }

  // --- Backpressure: bounded queue, shed at capacity.
  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.shed_queue_full;
    ticket.verdict = AdmissionVerdict::kShedQueueFull;
    return ticket;
  }

  // --- Predictive deadline shedding: if the backlog alone is already
  // expected to eat the deadline, say no NOW instead of returning a
  // guaranteed kDeadlineExceeded later. Strict admission doubles the margin.
  if (query.deadline_ms > 0.0) {
    const double ewma = EwmaMsLocked(query.kind);
    if (ewma > 0.0) {
      // Price the backlog in engine RUNS, not queries: queued fault-free
      // BFS queries coalesce batch_max-to-one, so a queue of 48 of them is
      // ceil(48 / batch_max) batch runs' worth of wait. The EWMA itself is
      // sampled per run (a batch contributes its wall time once), so the
      // two sides of the estimate use the same unit. With batch_max == 1
      // this is exactly the old per-query estimate.
      const uint64_t bfs_queued =
          queued_by_kind_[static_cast<uint8_t>(QueryKind::kBfs)];
      const uint64_t bfs_runs =
          (bfs_queued + options_.batch_max - 1) / options_.batch_max;
      const uint64_t backlog_runs = queue_.size() - bfs_queued + bfs_runs;
      const double waves =
          static_cast<double>(backlog_runs / options_.workers + 1);
      const double est_wait_ms = ewma * waves;
      const double margin = strict_admission_ ? 2.0 : 1.0;
      if (est_wait_ms * margin > query.deadline_ms) {
        ++stats_.shed_deadline;
        ticket.verdict = AdmissionVerdict::kShedDeadline;
        return ticket;
      }
    }
  }

  // --- Admit.
  auto task = std::make_unique<Task>();
  task->id = next_query_id_++;
  task->query = query;
  task->cancel = std::make_shared<CancelToken>();
  task->faults = std::move(faults);
  task->submit_ms = NowMs();
  task->deadline_abs_ms =
      query.deadline_ms > 0.0 ? task->submit_ms + query.deadline_ms : 0.0;
  task->max_attempts = query.max_attempts > 0 ? query.max_attempts
                                              : options_.default_max_attempts;
  ticket.verdict = AdmissionVerdict::kAdmitted;
  ticket.query_id = task->id;
  ticket.result = task->promise.get_future();
  ++stats_.admitted;
  ++queued_by_kind_[static_cast<uint8_t>(query.kind)];
  live_.emplace_back(task->id, task->cancel);
  queue_.push_back(std::move(task));
  StepLadderLocked();
  lock.unlock();
  work_cv_.notify_one();
  return ticket;
}

bool GraphService::Cancel(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, token] : live_) {
    if (id == query_id) {
      token->Cancel();
      return true;
    }
  }
  return false;
}

void GraphService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void GraphService::SetGraphVersion(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version != graph_version_) {
    graph_version_ = version;
    cache_.Clear();  // the old epoch's answers are unreachable by key anyway
  }
}

uint64_t GraphService::graph_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_version_;
}

void GraphService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void GraphService::Shutdown() {
  Resume();  // a paused queue would never drain
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
  workers_.clear();
}

ServiceStats GraphService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  s.cache_evictions = cache_.evictions();
  return s;
}

double GraphService::EwmaMsLocked(QueryKind kind) const {
  return ewma_ms_[static_cast<uint8_t>(kind)];
}

void GraphService::StepLadderLocked() {
  const double occupancy = static_cast<double>(queue_.size()) /
                           static_cast<double>(options_.queue_capacity);
  const bool strict = occupancy >= kHighWater ||
                      (strict_admission_ && occupancy >= kLowWater);
  if (strict == strict_admission_) {
    return;
  }
  strict_admission_ = strict;
  DowngradeEvent e;
  e.iteration = strict ? 1 : 0;
  e.action = strict ? "shed:admission-strict" : "shed:step-down";
  stats_.ladder.push_back(std::move(e));
}

void GraphService::CountOutcomeLocked(const QueryResult& result, bool ran) {
  switch (result.outcome) {
    case RunOutcome::kCompleted:
    case RunOutcome::kResumed:
      ++stats_.completed;
      break;
    case RunOutcome::kCancelled:
      ++stats_.cancelled;
      break;
    case RunOutcome::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      if (!ran) {
        ++stats_.expired_in_queue;
      }
      break;
    case RunOutcome::kFaulted:
      ++stats_.faulted;
      break;
    case RunOutcome::kCheckpointSinkFailed:
      ++stats_.sink_failed;
      break;
  }
  if (result.attempts > 1) {
    stats_.retries += result.attempts - 1;
  }
}

bool GraphService::FillsCache(const Task& task,
                              const QueryResult& result) const {
  // Only clean, first-attempt answers fill the cache: no per-query faults
  // armed, no retry or resume in the history — a later hit must be
  // indistinguishable from a fresh untroubled run.
  return options_.cache_capacity > 0 && task.faults == nullptr &&
         result.outcome == RunOutcome::kCompleted && result.attempts <= 1;
}

void GraphService::MaybeCacheFillLocked(const Task& task,
                                        QueryResult& result) {
  if (!FillsCache(task, result)) {
    return;
  }
  CacheKey key;
  key.kind = static_cast<uint8_t>(task.query.kind);
  key.source = task.query.kind == QueryKind::kKCore ? 0 : task.query.source;
  key.params_hash = task.query.kind == QueryKind::kKCore ? task.query.k : 0;
  key.graph_version = graph_version_;
  CachedAnswer answer;
  answer.fingerprint = result.fingerprint;
  answer.value_fingerprint = result.value_fingerprint;
  answer.stats = result.stats;
  // Bytes the client did not ask for were kept only for this fill.
  answer.value_bytes = task.query.want_values ? result.value_bytes
                                              : std::move(result.value_bytes);
  cache_.Insert(key, std::move(answer));
}

void GraphService::RunTask(Task& task, WorkerArena& arena) {
  QueryResult result;
  result.query_id = task.id;
  result.kind = task.query.kind;

  const double start_ms = NowMs();
  result.queue_ms = start_ms - task.submit_ms;

  // In-queue expiry and cancellation are decided here, once, before any
  // engine work: a dead query must not occupy an arena.
  const bool cancelled = task.cancel->cancelled();
  const bool expired =
      task.deadline_abs_ms > 0.0 && start_ms >= task.deadline_abs_ms;
  bool ran = false;
  if (cancelled) {
    result.outcome = RunOutcome::kCancelled;
  } else if (expired) {
    result.outcome = RunOutcome::kDeadlineExceeded;
  } else {
    ran = true;
    RobustRunOptions run_options;
    run_options.checkpoint_every = options_.checkpoint_every;
    run_options.max_attempts = task.max_attempts;
    run_options.cancel = task.cancel.get();
    run_options.faults = task.faults.get();
    if (task.deadline_abs_ms > 0.0) {
      run_options.attempt_time_budget_ms = task.deadline_abs_ms - start_ms;
    }

    // Keep the output bytes around when this answer may fill the cache,
    // even if the client only wants the digest (stripped again below).
    const bool keep_values =
        task.query.want_values ||
        (options_.cache_capacity > 0 && task.faults == nullptr);

    switch (task.query.kind) {
      case QueryKind::kBfs: {
        BfsProgram program;
        program.source = task.query.source;
        RunInArena(arena.bfs, graph_, options_.device, options_.engine,
                   program, run_options, keep_values, &result);
        break;
      }
      case QueryKind::kSssp: {
        SsspProgram program;
        program.source = task.query.source;
        RunInArena(arena.sssp, graph_, options_.device, options_.engine,
                   program, run_options, keep_values, &result);
        break;
      }
      case QueryKind::kPpr: {
        PprProgram program;
        program.graph = &graph_;
        program.source = task.query.source;
        RunInArena(arena.ppr, graph_, options_.device, options_.engine,
                   program, run_options, keep_values, &result);
        break;
      }
      case QueryKind::kKCore: {
        KCoreProgram program;
        program.graph = &graph_;
        program.k = task.query.k;
        RunInArena(arena.kcore, graph_, options_.device, options_.engine,
                   program, run_options, keep_values, &result);
        break;
      }
      case QueryKind::kCount:
        break;  // unreachable: admission bound-guards the kind byte
    }
    result.run_ms = NowMs() - start_ms;
  }

  // Retire: ledger first (under the lock), then the promise — a client
  // observing its future resolved must find the ledger already counted.
  {
    std::lock_guard<std::mutex> lock(mu_);
    CountOutcomeLocked(result, ran);
    if (result.ok()) {
      // One EWMA sample per engine run (a solo task IS one run).
      double& ewma = ewma_ms_[static_cast<uint8_t>(result.kind)];
      ewma = ewma == 0.0 ? result.run_ms
                         : (1.0 - kEwmaAlpha) * ewma + kEwmaAlpha * result.run_ms;
    }
    MaybeCacheFillLocked(task, result);
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].first == task.id) {
        live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  if (!task.query.want_values) {
    result.value_bytes.clear();  // only kept for the cache fill
  }
  task.promise.set_value(std::move(result));
}

void GraphService::RunBatch(std::vector<std::unique_ptr<Task>>& batch,
                            WorkerArena& arena) {
  const double start_ms = NowMs();

  // Per-member triage, exactly like the solo path: a cancelled or expired
  // member is retired here with run_ms == 0 and must not influence the run
  // (not even its lane). Cancels arriving AFTER this point lose the race —
  // the batch answers them anyway, which is the solo semantics too.
  std::vector<std::unique_ptr<Task>> live;
  live.reserve(batch.size());
  for (auto& task : batch) {
    QueryResult result;
    result.query_id = task->id;
    result.kind = task->query.kind;
    result.queue_ms = start_ms - task->submit_ms;
    if (task->cancel->cancelled()) {
      result.outcome = RunOutcome::kCancelled;
    } else if (task->deadline_abs_ms > 0.0 &&
               start_ms >= task->deadline_abs_ms) {
      result.outcome = RunOutcome::kDeadlineExceeded;
    } else {
      live.push_back(std::move(task));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      CountOutcomeLocked(result, /*ran=*/false);
      for (size_t i = 0; i < live_.size(); ++i) {
        if (live_[i].first == result.query_id) {
          live_.erase(live_.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
    }
    task->promise.set_value(std::move(result));
  }
  batch.clear();
  if (live.empty()) {
    return;
  }
  if (live.size() == 1) {
    // An effective batch of one keeps the solo one-shot contract (stats
    // fingerprint comparable to a fresh Engine::Run) — clients submitting
    // sequentially never observe batching at all.
    RunTask(*live[0], arena);
    return;
  }

  // --- One bit-parallel run answers every surviving member.
  std::vector<VertexId> sources;
  sources.reserve(live.size());
  for (const auto& task : live) {
    sources.push_back(task->query.source);  // duplicates share a lane
  }

  RobustRunOptions run_options;
  run_options.checkpoint_every = options_.checkpoint_every;
  // The batch is as persistent as its most persistent member; fault-armed
  // queries never reach here, so `faults` stays null (the process-wide
  // SIMDX_FAULTS registry still applies — a faulted batch retries as one).
  run_options.max_attempts = 1;
  for (const auto& task : live) {
    run_options.max_attempts =
        std::max(run_options.max_attempts, task->max_attempts);
  }
  // A time budget needs every member to have a deadline: aborting the run
  // at the earliest one would rob the others of an answer they are still
  // entitled to, so the budget is the LATEST deadline and members that
  // lapse in between are marked individually below.
  bool all_deadlined = true;
  double latest_deadline = 0.0;
  for (const auto& task : live) {
    all_deadlined = all_deadlined && task->deadline_abs_ms > 0.0;
    latest_deadline = std::max(latest_deadline, task->deadline_abs_ms);
  }
  if (all_deadlined) {
    run_options.attempt_time_budget_ms = latest_deadline - start_ms;
  }

  MsBfsInit(&arena.msbfs_state, sources, graph_.vertex_count());
  MsBfsProgram program;
  program.state = &arena.msbfs_state;
  program.graph = &graph_;  // settled-census direction policy on
  auto& engine = arena.msbfs;
  if (!engine) {
    engine = std::make_unique<Engine<MsBfsProgram>>(graph_, options_.device,
                                                    options_.engine);
  }
  const auto r = RobustRun(*engine, program, run_options);
  const double end_ms = NowMs();
  const double batch_ms = end_ms - start_ms;
  const bool run_ok = r.stats.ok();
  const std::string batch_fp = run_ok ? StatsFingerprint(r) : std::string();

  // --- Demux: each answered member's answer is its lane's settle-time
  // level array. One sweep digests every lane and writes out only the lanes
  // whose bytes a member asked for or the cache will keep.
  constexpr uint32_t kNoLane = 64;
  std::vector<QueryResult> results(live.size());
  std::vector<uint32_t> lane_of(live.size(), kNoLane);
  uint64_t wanted = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    const Task& task = *live[i];
    QueryResult& result = results[i];
    result.query_id = task.id;
    result.kind = task.query.kind;
    result.served = ServedBy::kBatched;
    result.queue_ms = start_ms - task.submit_ms;
    result.run_ms = batch_ms;
    result.attempts = r.stats.attempts;
    result.stats = r.stats;
    if (!run_ok) {
      // Shared fate on failure: the whole batch faulted / ran out of
      // budget / hit a sink failure, and each member reports it. Outcomes
      // stay per-query in the ledger.
      result.outcome = r.stats.outcome;
      continue;
    }
    if (task.deadline_abs_ms > 0.0 && end_ms >= task.deadline_abs_ms) {
      // The run finished, but past THIS member's deadline.
      result.outcome = RunOutcome::kDeadlineExceeded;
      continue;
    }
    result.outcome = r.stats.outcome;  // kCompleted or kResumed
    result.fingerprint = batch_fp;
    lane_of[i] = arena.msbfs_state.LaneOf(task.query.source);
    if (task.query.want_values || FillsCache(task, result)) {
      wanted |= 1ull << lane_of[i];
    }
  }
  // A lane's bytes move into the first member that needs them, which is
  // also the member that fills the cache; a later member on the same lane
  // (a duplicate source) copies them only when it asked for values.
  std::vector<size_t> taker(kNoLane, live.size());
  if (run_ok) {
    MsBfsLaneAnswers answers = DemuxLanes(arena.msbfs_state, wanted);
    for (size_t i = 0; i < live.size(); ++i) {
      const uint32_t lane = lane_of[i];
      if (lane == kNoLane) {
        continue;
      }
      const Task& task = *live[i];
      QueryResult& result = results[i];
      result.value_fingerprint = answers.digests[lane];
      if (!task.query.want_values && !FillsCache(task, result)) {
        continue;
      }
      if (taker[lane] == live.size()) {
        taker[lane] = i;
        result.value_bytes = std::move(answers.bytes[lane]);
      } else if (task.query.want_values) {
        result.value_bytes = results[taker[lane]].value_bytes;
      }
    }
  }

  // Retire all members: ledger first (one critical section), then the
  // promises — same order the solo path guarantees.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.batched_queries += live.size();
    if (run_ok) {
      // One EWMA sample for the whole batch: the estimator prices RUNS.
      double& ewma = ewma_ms_[static_cast<uint8_t>(QueryKind::kBfs)];
      ewma = ewma == 0.0 ? batch_ms
                         : (1.0 - kEwmaAlpha) * ewma + kEwmaAlpha * batch_ms;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      CountOutcomeLocked(results[i], /*ran=*/true);
      if (lane_of[i] != kNoLane && taker[lane_of[i]] == i) {
        MaybeCacheFillLocked(*live[i], results[i]);
      }
      for (size_t j = 0; j < live_.size(); ++j) {
        if (live_[j].first == results[i].query_id) {
          live_.erase(live_.begin() + static_cast<ptrdiff_t>(j));
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    if (!live[i]->query.want_values) {
      results[i].value_bytes.clear();
    }
    live[i]->promise.set_value(std::move(results[i]));
  }
}

void GraphService::WorkerLoop(uint32_t /*worker_index*/) {
  WorkerArena arena;
  while (true) {
    std::vector<std::unique_ptr<Task>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      --queued_by_kind_[static_cast<uint8_t>(batch.front()->query.kind)];
      // Coalesce: claim every other fault-free BFS query waiting right now,
      // up to the lane budget. Fault-armed queries never batch (their
      // containment contract is per-query), and they also don't break the
      // scan — later clean queries still coalesce past them.
      if (options_.batch_max > 1 &&
          batch.front()->query.kind == QueryKind::kBfs &&
          batch.front()->faults == nullptr) {
        for (auto it = queue_.begin();
             it != queue_.end() && batch.size() < options_.batch_max;) {
          if ((*it)->query.kind == QueryKind::kBfs &&
              (*it)->faults == nullptr) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
            --queued_by_kind_[static_cast<uint8_t>(QueryKind::kBfs)];
          } else {
            ++it;
          }
        }
      }
      in_flight_ += static_cast<uint32_t>(batch.size());
      StepLadderLocked();
    }
    const uint32_t claimed = static_cast<uint32_t>(batch.size());
    if (claimed == 1) {
      RunTask(*batch.front(), arena);
    } else {
      RunBatch(batch, arena);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= claimed;
      if (queue_.empty() && in_flight_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

}  // namespace simdx::service
