// Property-based sweeps over random graphs: algorithm-independent invariants
// that must hold for every seed, not just hand-picked examples.
#include <gtest/gtest.h>

#include "algos/algos.h"
#include "baselines/cpu_reference.h"
#include "graph/generators.h"
#include "simt/device.h"

namespace simdx {
namespace {

struct Workload {
  std::string name;
  uint64_t seed;
  bool skewed;  // rmat vs uniform
};

class RandomGraphProperties : public ::testing::TestWithParam<Workload> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    EdgeList edges = p.skewed ? GenerateRmat(9, 8, p.seed)
                              : GenerateUniformRandom(512, 4096, p.seed);
    graph_ = Graph::FromEdges(std::move(edges), false);
    options_.sim_worker_threads = 64;
  }

  Graph graph_;
  EngineOptions options_;
};

// BFS levels differ by at most 1 across any edge (triangle inequality for
// hop counts), and parents exist at level-1.
TEST_P(RandomGraphProperties, BfsLevelsAreConsistent) {
  const auto result = RunBfs(graph_, 0, MakeK40(), options_);
  ASSERT_TRUE(result.stats.ok());
  const auto& level = result.values;
  for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
    if (level[v] == kInfinity) {
      continue;
    }
    bool has_parent = level[v] == 0;
    for (VertexId u : graph_.out().Neighbors(v)) {
      if (level[u] != kInfinity) {
        const uint32_t hi = std::max(level[u], level[v]);
        const uint32_t lo = std::min(level[u], level[v]);
        EXPECT_LE(hi - lo, 1u) << "edge (" << v << "," << u << ")";
      }
      has_parent = has_parent || (level[u] != kInfinity && level[u] + 1 == level[v]);
    }
    EXPECT_TRUE(has_parent) << "vertex " << v << " at level " << level[v];
  }
}

// SSSP distances satisfy the relaxed triangle inequality on every edge:
// dist[v] <= dist[u] + w(u, v), with equality witnessed by some parent.
TEST_P(RandomGraphProperties, SsspTriangleInequality) {
  const auto result = RunSssp(graph_, 0, MakeK40(), options_);
  ASSERT_TRUE(result.stats.ok());
  const auto& dist = result.values;
  for (VertexId u = 0; u < graph_.vertex_count(); ++u) {
    if (dist[u] == kInfinity) {
      continue;
    }
    const auto nbrs = graph_.out().Neighbors(u);
    const auto wts = graph_.out().NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ASSERT_NE(dist[nbrs[i]], kInfinity) << "reachable neighbor unreached";
      EXPECT_LE(dist[nbrs[i]], dist[u] + wts[i])
          << "edge (" << u << "," << nbrs[i] << ") violates relaxation";
    }
  }
}

// PageRank: every rank at least the teleport base, total mass bounded by 1.
TEST_P(RandomGraphProperties, PageRankMassAndPositivity) {
  const auto result = RunPageRank(graph_, MakeK40(), options_, 1e-10);
  ASSERT_TRUE(result.stats.ok());
  const double base = 0.15 / graph_.vertex_count();
  double total = 0.0;
  for (const auto& value : result.values) {
    EXPECT_GE(value.rank, base * (1 - 1e-9));
    total += value.rank;
  }
  EXPECT_LE(total, 1.0 + 1e-6);
  EXPECT_GT(total, 0.5) << "undirected graph should retain most mass";
}

// WCC labels: endpoints of every edge share a label, and each label is the
// minimum id of its member set.
TEST_P(RandomGraphProperties, WccLabelsAreClosedAndMinimal) {
  const auto result = RunWcc(graph_, MakeK40(), options_);
  ASSERT_TRUE(result.stats.ok());
  const auto& label = result.values;
  for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
    EXPECT_LE(label[v], v) << "label is the smallest member id";
    for (VertexId u : graph_.out().Neighbors(v)) {
      EXPECT_EQ(label[u], label[v]);
    }
  }
}

// k-Core: result is a fixpoint — no survivor has fewer than k live
// neighbors, and no removed vertex could have survived (checked via oracle).
TEST_P(RandomGraphProperties, KCoreFixpoint) {
  const uint32_t k = 6;
  const auto result = RunKCore(graph_, k, MakeK40(), options_);
  ASSERT_TRUE(result.stats.ok());
  const auto oracle = CpuKCoreRemoved(graph_, k);
  for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
    ASSERT_EQ(result.values[v].removed, oracle[v]) << v;
  }
}

// Engine telemetry invariants: pattern strings and logs are always the same
// length as the iteration count, and edge totals are conserved.
TEST_P(RandomGraphProperties, TelemetryShapeInvariants) {
  EngineOptions logged = options_;
  logged.keep_iteration_log = true;
  const auto result = RunSssp(graph_, 0, MakeK40(), logged);
  ASSERT_TRUE(result.stats.ok());
  EXPECT_EQ(result.stats.filter_pattern.size(), result.stats.iterations);
  EXPECT_EQ(result.stats.direction_pattern.size(), result.stats.iterations);
  EXPECT_EQ(result.stats.iteration_logs.size(), result.stats.iterations);
  uint64_t edges = 0;
  for (const auto& log : result.stats.iteration_logs) {
    edges += log.edges_processed;
  }
  EXPECT_EQ(edges, result.stats.total_edges_processed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomGraphProperties,
    ::testing::Values(Workload{"rmat1", 11, true}, Workload{"rmat2", 23, true},
                      Workload{"rmat3", 37, true}, Workload{"uni1", 41, false},
                      Workload{"uni2", 59, false}, Workload{"uni3", 71, false}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace simdx
