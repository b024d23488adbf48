// The PR's acceptance sweep: a 200-query mixed workload (BFS / SSSP / PPR /
// k-Core from varied sources) with faults armed on 10% of the queries, run
// at service worker counts {1, 3, 8}. Containment contract:
//   * every NON-faulted query completes with a StatsFingerprint bit-identical
//     to a one-shot Engine::Run of the same program (the oracle);
//   * every faulted query either returns kFaulted (single attempt) or
//     succeeds via RobustRun retry — and when it succeeds, its fingerprint
//     is oracle-pure too (resume determinism);
//   * the service neither deadlocks nor aborts, and the ledger identities
//     hold exactly.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "algos/algos.h"
#include "bench/common.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "service/service.h"
#include "simt/device.h"

namespace simdx::service {
namespace {

EngineOptions SweepEngineOptions() {
  EngineOptions o;
  o.sim_worker_threads = 64;
  o.host_threads = 2;  // multi-chunk collects and pull gathers
  return o;
}

struct WorkloadQuery {
  Query query;
  std::string oracle_key;
};

VertexId HubSource(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 1; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) {
      best = v;
    }
  }
  return best;
}

// Deterministic mixed workload: kind/source/k from an LCG, every 10th query
// armed with an always-firing fault (iteration-start / frontier hooks fire
// in push AND pull iterations), alternating between a single attempt (must
// surface kFaulted) and a retry budget (must recover). Armed queries start
// from the hub on a traversal kind, guaranteeing a multi-iteration run —
// a fault armed at iteration 1 of a run that converges at iteration 0 would
// never fire and the assertions below could not distinguish "contained"
// from "skipped".
std::vector<WorkloadQuery> BuildWorkload(const Graph& g, size_t count) {
  const VertexId hub = HubSource(g);
  std::vector<WorkloadQuery> out;
  out.reserve(count);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (size_t i = 0; i < count; ++i) {
    WorkloadQuery wq;
    const uint64_t r = next();
    wq.query.kind = static_cast<QueryKind>(r % 4);
    wq.query.source = static_cast<VertexId>(next() % g.vertex_count());
    wq.query.k = 2 + static_cast<uint32_t>(next() % 3);
    if (i % 10 == 5) {
      constexpr QueryKind kTraversals[] = {QueryKind::kBfs, QueryKind::kSssp,
                                           QueryKind::kPpr};
      wq.query.kind = kTraversals[(i / 10) % 3];
      wq.query.source = hub;
      wq.query.fault_spec =
          (i % 20 == 5) ? "iteration-start@1" : "frontier@1";
      // Alternate: bare single attempt vs a retry budget.
      wq.query.max_attempts = (i % 40 == 5) ? 1 : 3;
    }
    std::string key = std::string(ToString(wq.query.kind)) + "|" +
                      std::to_string(wq.query.source);
    if (wq.query.kind == QueryKind::kKCore) {
      key += "|" + std::to_string(wq.query.k);
    }
    wq.oracle_key = std::move(key);
    out.push_back(std::move(wq));
  }
  return out;
}

// One-shot Engine::Run fingerprints, computed lazily per distinct program.
class Oracle {
 public:
  explicit Oracle(const Graph& g) : g_(g) {}

  const std::string& Fingerprint(const WorkloadQuery& wq) {
    auto it = cache_.find(wq.oracle_key);
    if (it != cache_.end()) {
      return it->second;
    }
    const EngineOptions o = SweepEngineOptions();
    std::string fp;
    switch (wq.query.kind) {
      case QueryKind::kBfs:
        fp = bench::StatsFingerprint(RunBfs(g_, wq.query.source, MakeK40(), o));
        break;
      case QueryKind::kSssp:
        fp = bench::StatsFingerprint(RunSssp(g_, wq.query.source, MakeK40(), o));
        break;
      case QueryKind::kPpr:
        fp = bench::StatsFingerprint(RunPpr(g_, wq.query.source, MakeK40(), o));
        break;
      case QueryKind::kKCore:
        fp = bench::StatsFingerprint(RunKCore(g_, wq.query.k, MakeK40(), o));
        break;
    }
    return cache_.emplace(wq.oracle_key, std::move(fp)).first->second;
  }

 private:
  const Graph& g_;
  std::map<std::string, std::string> cache_;
};

TEST(ContainmentTest, MixedWorkloadWithFaultsStaysOraclePure) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 3), false);
  const auto workload = BuildWorkload(g, 200);
  Oracle oracle(g);

  for (uint32_t workers : {1u, 3u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServiceOptions so;
    so.workers = workers;
    so.queue_capacity = workload.size();  // no shedding: every query runs
    so.engine = SweepEngineOptions();
    so.checkpoint_every = 2;
    GraphService svc(g, so);

    std::vector<GraphService::Ticket> tickets;
    tickets.reserve(workload.size());
    for (const WorkloadQuery& wq : workload) {
      auto t = svc.Submit(wq.query);
      ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted) << wq.oracle_key;
      tickets.push_back(std::move(t));
    }
    svc.Drain();

    uint64_t faulted = 0;
    uint64_t recovered = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      const WorkloadQuery& wq = workload[i];
      const QueryResult r = tickets[i].result.get();
      const bool armed = !wq.query.fault_spec.empty();
      if (!armed) {
        // Containment: a clean query next to a faulting one is untouched.
        ASSERT_EQ(r.outcome, RunOutcome::kCompleted) << wq.oracle_key;
        EXPECT_EQ(r.attempts, 1u) << wq.oracle_key;
        EXPECT_EQ(r.fingerprint, oracle.Fingerprint(wq)) << wq.oracle_key;
      } else if (r.ok()) {
        // Recovered via retry — and the recovery is oracle-pure.
        ++recovered;
        EXPECT_GT(r.attempts, 1u) << wq.oracle_key;
        EXPECT_EQ(r.fingerprint, oracle.Fingerprint(wq)) << wq.oracle_key;
      } else {
        ++faulted;
        EXPECT_EQ(r.outcome, RunOutcome::kFaulted) << wq.oracle_key;
        EXPECT_EQ(r.attempts, wq.query.max_attempts) << wq.oracle_key;
      }
    }
    // 20 armed queries: the single-attempt ones (i % 40 == 5) must fault,
    // the retry-budget ones must recover.
    EXPECT_GT(faulted, 0u);
    EXPECT_GT(recovered, 0u);
    EXPECT_EQ(faulted + recovered, 20u);

    const ServiceStats s = svc.stats();
    EXPECT_EQ(s.submitted, workload.size());
    EXPECT_EQ(s.admitted, workload.size());
    EXPECT_EQ(s.completed, workload.size() - faulted);
    EXPECT_EQ(s.faulted, faulted);
    EXPECT_GE(s.retries, recovered);  // each recovery burned >= 1 retry
  }
}

}  // namespace
}  // namespace simdx::service
