#include "algos/ppr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algos/algos.h"
#include "bench/common.h"
#include "graph/generators.h"
#include "simt/device.h"

namespace simdx {
namespace {

EngineOptions TestOptions() {
  EngineOptions o;
  o.sim_worker_threads = 128;
  o.max_iterations = 20000;
  return o;
}

// Highest-out-degree vertex: start in the giant component (tests link the
// core lib only, so bench::DefaultSource is re-derived here).
VertexId HubSource(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 1; v < g.vertex_count(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) {
      best = v;
    }
  }
  return best;
}

// Dense power iteration on p = (1-d) e_s + d M p, the fixpoint PprProgram's
// residual scheme converges to.
std::vector<double> CpuPpr(const Graph& g, VertexId source, double damping,
                           uint32_t rounds = 4000) {
  const size_t n = g.vertex_count();
  std::vector<double> p(n, 0.0);
  std::vector<double> next(n);
  for (uint32_t it = 0; it < rounds; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    next[source] = 1.0 - damping;
    for (VertexId u = 0; u < n; ++u) {
      const uint32_t degree = g.OutDegree(u);
      if (degree == 0 || p[u] == 0.0) {
        continue;
      }
      const double share = damping * p[u] / degree;
      for (VertexId v : g.out().Neighbors(u)) {
        next[v] += share;
      }
    }
    p.swap(next);
  }
  return p;
}

TEST(PprTest, MatchesPowerIterationOnSkewedGraph) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 3), false);
  const VertexId source = HubSource(g);
  const auto result = RunPpr(g, source, MakeK40(), TestOptions(), 1e-12);
  ASSERT_TRUE(result.stats.ok());
  const auto oracle = CpuPpr(g, source, 0.85);
  ASSERT_EQ(result.values.size(), oracle.size());
  for (size_t v = 0; v < oracle.size(); ++v) {
    EXPECT_NEAR(result.values[v].rank, oracle[v], 1e-7) << "vertex " << v;
  }
}

TEST(PprTest, MassConcentratesAtTheSource) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 6, 9), true);
  const VertexId source = HubSource(g);
  const auto result = RunPpr(g, source, MakeK40(), TestOptions(), 1e-12);
  ASSERT_TRUE(result.stats.ok());
  // The source holds at least the teleport mass it was seeded with; vertices
  // the source cannot reach hold exactly zero.
  EXPECT_GE(result.values[source].rank, 1.0 - 0.85);
  const auto dist = RunBfs(g, source, MakeK40(), TestOptions());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (dist.values[v] == kInfinity) {
      EXPECT_EQ(result.values[v].rank, 0.0) << "unreachable vertex " << v;
    }
  }
}

TEST(PprTest, DeterministicAcrossHostThreads) {
  const Graph g = Graph::FromEdges(GenerateRmat(8, 8, 5), false);
  const VertexId source = HubSource(g);
  EngineOptions serial = TestOptions();
  serial.host_threads = 1;
  EngineOptions parallel = TestOptions();
  parallel.host_threads = 3;
  const auto a = RunPpr(g, source, MakeK40(), serial, 1e-12);
  const auto b = RunPpr(g, source, MakeK40(), parallel, 1e-12);
  ASSERT_TRUE(a.stats.ok());
  ASSERT_TRUE(b.stats.ok());
  EXPECT_EQ(bench::StatsFingerprint(a), bench::StatsFingerprint(b));
}

TEST(PprTest, IsolatedSourceKeepsAllMass) {
  const Graph g = Graph::FromEdges(EdgeList{}, false, /*vertex_count=*/4);
  const auto result = RunPpr(g, 2, MakeK40(), TestOptions(), 1e-12);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_NEAR(result.values[2].rank, 1.0 - 0.85, 1e-12);
  for (VertexId v : {0u, 1u, 3u}) {
    EXPECT_EQ(result.values[v].rank, 0.0);
  }
}

}  // namespace
}  // namespace simdx
