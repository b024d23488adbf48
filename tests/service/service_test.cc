// GraphService unit tests: admission verdicts (queue-full / deadline /
// invalid), end-to-end deadlines, cancellation of pending and running
// queries, the overload-shedding ladder, one host thread per query, and the
// ledger identities. The fault-containment sweep (faults in a concurrent
// mixed workload, oracle fingerprints) lives in
// tests/service/containment_test.cc.
#include "service/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/algos.h"
#include "bench/common.h"
#include "core/fingerprint.h"
#include "core/parallel.h"
#include "graph/generators.h"

namespace simdx::service {
namespace {

Graph TestGraph() { return Graph::FromEdges(GenerateRmat(8, 8, 3), false); }

ServiceOptions SmallService(uint32_t workers, uint32_t capacity) {
  ServiceOptions o;
  o.workers = workers;
  o.queue_capacity = capacity;
  o.engine.sim_worker_threads = 64;
  return o;
}

TEST(ServiceTest, AdmittedQueryMatchesOneShotEngineRun) {
  const Graph g = TestGraph();
  const ServiceOptions so = SmallService(2, 16);
  GraphService svc(g, so);

  for (QueryKind kind : {QueryKind::kBfs, QueryKind::kSssp, QueryKind::kPpr,
                         QueryKind::kKCore}) {
    SCOPED_TRACE(ToString(kind));
    Query q;
    q.kind = kind;
    q.source = 3;
    q.k = 3;
    auto ticket = svc.Submit(q);
    ASSERT_EQ(ticket.verdict, AdmissionVerdict::kAdmitted);
    const QueryResult r = ticket.result.get();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(r.attempts, 1u);

    // The oracle: a one-shot Engine::Run of the same program. Any drift
    // means the resident arenas leak state between queries.
    std::string oracle;
    switch (kind) {
      case QueryKind::kBfs:
        oracle = bench::StatsFingerprint(RunBfs(g, 3, so.device, so.engine));
        break;
      case QueryKind::kSssp:
        oracle = bench::StatsFingerprint(RunSssp(g, 3, so.device, so.engine));
        break;
      case QueryKind::kPpr:
        oracle = bench::StatsFingerprint(RunPpr(g, 3, so.device, so.engine));
        break;
      case QueryKind::kKCore:
        oracle = bench::StatsFingerprint(RunKCore(g, 3, so.device, so.engine));
        break;
      case QueryKind::kCount:
        break;  // sentinel, never submitted
    }
    EXPECT_EQ(r.fingerprint, oracle);
  }
}

TEST(ServiceTest, EveryKindRunsAndValuesRoundTrip) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(3, 32));
  for (QueryKind kind : {QueryKind::kBfs, QueryKind::kSssp, QueryKind::kPpr,
                         QueryKind::kKCore}) {
    Query q;
    q.kind = kind;
    q.source = 5;
    q.k = 3;
    q.want_values = true;
    auto ticket = svc.Submit(q);
    ASSERT_EQ(ticket.verdict, AdmissionVerdict::kAdmitted) << ToString(kind);
    const QueryResult r = ticket.result.get();
    EXPECT_TRUE(r.ok()) << ToString(kind);
    EXPECT_FALSE(r.fingerprint.empty()) << ToString(kind);
    EXPECT_FALSE(r.value_bytes.empty()) << ToString(kind);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.completed, 4u);
}

TEST(ServiceTest, InvalidQueriesAreRejectedNotExecuted) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(1, 8));

  Query bad_source;
  bad_source.source = g.vertex_count() + 7;
  EXPECT_EQ(svc.Submit(bad_source).verdict, AdmissionVerdict::kRejectedInvalid);

  Query bad_k;
  bad_k.kind = QueryKind::kKCore;
  bad_k.k = 0;
  EXPECT_EQ(svc.Submit(bad_k).verdict, AdmissionVerdict::kRejectedInvalid);

  // An unparseable fault spec must be rejected at admission — handed to the
  // engine it would abort the whole process.
  Query bad_faults;
  bad_faults.source = 1;
  bad_faults.fault_spec = "bogus@@@";
  EXPECT_EQ(svc.Submit(bad_faults).verdict, AdmissionVerdict::kRejectedInvalid);

  // A duplicated fault term is a spec error too (satellite: parser rejects).
  Query dup_faults;
  dup_faults.source = 1;
  dup_faults.fault_spec = "replay@3,replay@3";
  EXPECT_EQ(svc.Submit(dup_faults).verdict, AdmissionVerdict::kRejectedInvalid);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.rejected_invalid, 4u);
  EXPECT_EQ(s.admitted, 0u);
}

TEST(ServiceTest, QueueFullSheds) {
  const Graph g = TestGraph();
  // One worker, tiny queue: flood it and count the sheds. The worker may
  // drain some entries mid-flood, so assert the identity rather than an
  // exact shed count.
  GraphService svc(g, SmallService(1, 2));
  uint32_t admitted = 0;
  uint32_t shed = 0;
  std::vector<GraphService::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = static_cast<VertexId>(i % g.vertex_count());
    auto t = svc.Submit(q);
    if (t.verdict == AdmissionVerdict::kAdmitted) {
      ++admitted;
      tickets.push_back(std::move(t));
    } else {
      ASSERT_EQ(t.verdict, AdmissionVerdict::kShedQueueFull);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u) << "a 2-deep queue cannot absorb a 64-query flood";
  svc.Drain();
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.submitted, 64u);
  EXPECT_EQ(s.admitted, admitted);
  EXPECT_EQ(s.shed_queue_full, shed);
  EXPECT_EQ(s.completed, admitted);
  for (auto& t : tickets) {
    EXPECT_TRUE(t.result.get().ok());
  }
}

TEST(ServiceTest, LadderEngagesUnderFloodAndStepsDown) {
  const Graph g = TestGraph();
  ServiceOptions o = SmallService(1, 8);
  o.start_paused = true;  // the flood fills the queue before any dispatch
  GraphService svc(g, o);
  for (int i = 0; i < 32; ++i) {
    Query q;
    q.source = static_cast<VertexId>(i % g.vertex_count());
    svc.Submit(q);
  }
  svc.Resume();
  svc.Drain();
  const ServiceStats s = svc.stats();
  // One rung: strict admission engages at 75% occupancy (6 of 8 queued) and
  // steps down below 50% as the worker drains the queue, each transition
  // recorded.
  ASSERT_EQ(s.ladder.size(), 2u);
  EXPECT_EQ(s.ladder[0].action, "shed:admission-strict");
  EXPECT_EQ(s.ladder[0].iteration, 1u);
  EXPECT_EQ(s.ladder[1].action, "shed:step-down");
  EXPECT_EQ(s.ladder[1].iteration, 0u) << "drained service must be back at rung 0";
  EXPECT_EQ(s.shed_queue_full, 24u);
  EXPECT_EQ(s.completed + s.deadline_exceeded + s.cancelled, s.admitted);
}

TEST(ServiceTest, QueriesRunOnTheirWorkerThreadNotThePool) {
  // However many host threads the engine options ask for, a query runs on
  // the worker that dequeued it and never submits to the shared pool, and
  // its answer still equals the one-shot oracle at the requested count.
  // R-MAT 12 is large enough that those oracles do submit.
  const Graph g = Graph::FromEdges(GenerateRmat(12, 8, 3), false);
  ServiceOptions o = SmallService(2, 32);
  o.engine.host_threads = 4;
  o.batch_max = 64;
  o.start_paused = true;
  std::vector<Query> queries;
  std::vector<GraphService::Ticket> tickets;
  const uint64_t before = ThreadPool::Global().telemetry().submits;
  {
    GraphService svc(g, o);
    auto ask = [&](QueryKind kind, VertexId source) {
      Query q;
      q.kind = kind;
      q.source = source;
      q.k = 3;
      auto t = svc.Submit(q);
      ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted);
      queries.push_back(q);
      tickets.push_back(std::move(t));
    };
    // The paused burst: one query of every other kind and eight BFS
    // queries, which coalesce into one multi-source run.
    ask(QueryKind::kSssp, 3);
    ask(QueryKind::kPpr, 3);
    ask(QueryKind::kKCore, 0);
    for (VertexId s = 0; s < 8; ++s) {
      ask(QueryKind::kBfs, s * 5);
    }
    svc.Resume();
    svc.Drain();
    ask(QueryKind::kBfs, 7);  // alone in the queue: a solo BFS run
    svc.Drain();
    EXPECT_EQ(svc.stats().batches, 1u);
    EXPECT_EQ(svc.stats().batched_queries, 8u);
  }
  const uint64_t after = ThreadPool::Global().telemetry().submits;
  EXPECT_EQ(after, before);

  // The oracles run after the read: at 4 host threads they submit.
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    SCOPED_TRACE(std::string(ToString(q.kind)) + " from " +
                 std::to_string(q.source));
    const QueryResult r = tickets[i].result.get();
    ASSERT_TRUE(r.ok());
    auto expect_oracle = [&](const auto& oracle) {
      const size_t bytes = oracle.values.size() * sizeof(oracle.values[0]);
      EXPECT_EQ(r.value_fingerprint,
                ValueBytesFingerprint(oracle.values.data(), bytes));
      if (r.served == ServedBy::kSolo) {
        EXPECT_EQ(r.fingerprint, bench::StatsFingerprint(oracle));
      }
    };
    switch (q.kind) {
      case QueryKind::kBfs:
        EXPECT_EQ(r.served, i + 1 == queries.size() ? ServedBy::kSolo
                                                    : ServedBy::kBatched);
        expect_oracle(RunBfs(g, q.source, o.device, o.engine));
        break;
      case QueryKind::kSssp:
        expect_oracle(RunSssp(g, q.source, o.device, o.engine));
        break;
      case QueryKind::kPpr:
        expect_oracle(RunPpr(g, q.source, o.device, o.engine));
        break;
      case QueryKind::kKCore:
        expect_oracle(RunKCore(g, q.k, o.device, o.engine));
        break;
      case QueryKind::kCount:
        break;  // sentinel, never submitted
    }
  }
  EXPECT_GT(ThreadPool::Global().telemetry().submits, after)
      << "the one-shot runs at 4 host threads never reached the pool";
}

TEST(ServiceTest, CancelPendingQueryResolvesCancelled) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(1, 32));
  // Stuff the single worker, then cancel the tail entries while queued.
  std::vector<GraphService::Ticket> tickets;
  for (int i = 0; i < 16; ++i) {
    Query q;
    q.source = 1;
    auto t = svc.Submit(q);
    ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted);
    tickets.push_back(std::move(t));
  }
  // Cancel the last ones — most likely still pending behind the worker.
  uint32_t cancel_requested = 0;
  for (size_t i = 8; i < tickets.size(); ++i) {
    if (svc.Cancel(tickets[i].query_id)) {
      ++cancel_requested;
    }
  }
  EXPECT_GT(cancel_requested, 0u);
  svc.Drain();
  uint32_t cancelled = 0;
  for (auto& t : tickets) {
    const QueryResult r = t.result.get();
    if (r.outcome == RunOutcome::kCancelled) {
      ++cancelled;
      EXPECT_EQ(r.run_ms, 0.0) << "cancelled-in-queue queries must not run";
    } else {
      EXPECT_TRUE(r.ok());
    }
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cancelled, cancelled);
  EXPECT_EQ(s.completed + s.cancelled, s.admitted);
  // Unknown ids are reported, not invented.
  EXPECT_FALSE(svc.Cancel(9999999));
}

TEST(ServiceTest, DeadlineExpiredInQueueNeverRuns) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(1, 64));
  // Head-of-line blockers with no deadline, then a batch with a deadline
  // far smaller than the backlog takes to clear.
  std::vector<GraphService::Ticket> blockers;
  for (int i = 0; i < 8; ++i) {
    Query q;
    q.source = 2;
    blockers.push_back(svc.Submit(q));
  }
  std::vector<GraphService::Ticket> doomed;
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.source = 2;
    q.deadline_ms = 1e-3;  // sub-microsecond: expires while queued
    auto t = svc.Submit(q);
    // Predictive shedding may already refuse it once the EWMA warms up;
    // both verdicts are legitimate here.
    if (t.verdict == AdmissionVerdict::kAdmitted) {
      doomed.push_back(std::move(t));
    } else {
      EXPECT_EQ(t.verdict, AdmissionVerdict::kShedDeadline);
    }
  }
  svc.Drain();
  for (auto& t : doomed) {
    const QueryResult r = t.result.get();
    EXPECT_EQ(r.outcome, RunOutcome::kDeadlineExceeded);
    EXPECT_EQ(r.run_ms, 0.0);
    EXPECT_TRUE(r.fingerprint.empty());
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.expired_in_queue, doomed.size());
  for (auto& t : blockers) {
    EXPECT_TRUE(t.result.get().ok());
  }
}

TEST(ServiceTest, PredictiveDeadlineShedAfterEwmaWarmup) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(1, 64));
  // Warm the BFS EWMA with a completed query.
  {
    Query q;
    q.source = 1;
    auto t = svc.Submit(q);
    ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted);
    ASSERT_TRUE(t.result.get().ok());
  }
  // Build a backlog, then ask for an impossible deadline: with a warm EWMA
  // and a deep queue the estimate must trip kShedDeadline at admission.
  for (int i = 0; i < 32; ++i) {
    Query q;
    q.source = 1;
    svc.Submit(q);
  }
  Query hopeless;
  hopeless.source = 1;
  hopeless.deadline_ms = 1e-6;
  const auto t = svc.Submit(hopeless);
  EXPECT_EQ(t.verdict, AdmissionVerdict::kShedDeadline);
  svc.Drain();
  EXPECT_GE(svc.stats().shed_deadline, 1u);
}

TEST(ServiceTest, SubmitAfterShutdownSheds) {
  const Graph g = TestGraph();
  GraphService svc(g, SmallService(1, 8));
  svc.Shutdown();
  Query q;
  q.source = 0;
  EXPECT_EQ(svc.Submit(q).verdict, AdmissionVerdict::kShedQueueFull);
}

}  // namespace
}  // namespace simdx::service
