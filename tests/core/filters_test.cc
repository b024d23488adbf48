#include "core/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "graph/generators.h"

namespace simdx {
namespace {

// The serial ballot scan (no pool) into a fresh buffer.
std::vector<VertexId> Scan(VertexId vertex_count, const ActivePredicate& active,
                           CostCounters& c) {
  std::vector<VertexId> frontier;
  BallotScratch scratch;
  BallotFilterScanInto(vertex_count, active, c, frontier, scratch, nullptr, 1);
  return frontier;
}

TEST(BallotFilterTest, EmptyWhenNothingActive) {
  CostCounters c;
  const auto frontier = Scan(100, [](VertexId) { return false; }, c);
  EXPECT_TRUE(frontier.empty());
  EXPECT_GT(c.coalesced_words, 0u) << "the scan itself is not free";
}

TEST(BallotFilterTest, FindsAllActive) {
  CostCounters c;
  const auto frontier = Scan(100, [](VertexId) { return true; }, c);
  EXPECT_EQ(frontier.size(), 100u);
}

TEST(BallotFilterTest, OutputSortedAndUnique) {
  std::mt19937 rng(3);
  std::vector<bool> active(1000);
  for (size_t i = 0; i < active.size(); ++i) {
    active[i] = rng() % 3 == 0;
  }
  CostCounters c;
  const auto frontier = Scan(
      static_cast<VertexId>(active.size()),
      [&](VertexId v) { return static_cast<bool>(active[v]); }, c);
  EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
  EXPECT_EQ(std::adjacent_find(frontier.begin(), frontier.end()), frontier.end());
  // Exactly the active set.
  size_t expected = std::count(active.begin(), active.end(), true);
  EXPECT_EQ(frontier.size(), expected);
  for (VertexId v : frontier) {
    EXPECT_TRUE(active[v]);
  }
}

TEST(BallotFilterTest, NonMultipleOf32VertexCount) {
  CostCounters c;
  const auto frontier = Scan(37, [](VertexId v) { return v >= 33; }, c);
  EXPECT_EQ(frontier, (std::vector<VertexId>{33, 34, 35, 36}));
}

TEST(BallotFilterTest, CostProportionalToVertexCount) {
  CostCounters small_c;
  CostCounters large_c;
  Scan(1000, [](VertexId) { return false; }, small_c);
  Scan(10000, [](VertexId) { return false; }, large_c);
  // 2 words per vertex scanned, regardless of how many are active — the
  // fixed cost that makes ballot a poor fit for thin frontiers (Section 4).
  EXPECT_EQ(small_c.coalesced_words, 2000u);
  EXPECT_EQ(large_c.coalesced_words, 20000u);
}

TEST(BatchFilterTest, ExpandsFrontierEdges) {
  const Graph g = Graph::FromEdges(GenerateStar(5), false);
  CostCounters c;
  const auto edges = BuildActiveEdgeList({0}, g, c);
  ASSERT_EQ(edges.size(), 5u);
  for (const ActiveEdge& e : edges) {
    EXPECT_EQ(e.src, 0u);
  }
  EXPECT_GT(c.coalesced_words, 5u * 3u) << "triples written to device memory";
}

TEST(BatchFilterTest, FootprintIsTwiceEdgeTriples) {
  const Graph g = Graph::FromEdges(GenerateComplete(10), false);
  EXPECT_EQ(BatchFilterFootprintBytes(g),
            static_cast<size_t>(g.edge_count()) * sizeof(ActiveEdge) * 2);
}

TEST(BatchFilterTest, EmptyFrontierEmptyList) {
  const Graph g = Graph::FromEdges(GenerateChain(4), false);
  CostCounters c;
  EXPECT_TRUE(BuildActiveEdgeList({}, g, c).empty());
}

}  // namespace
}  // namespace simdx
