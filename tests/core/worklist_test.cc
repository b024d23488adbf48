#include "core/worklist.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace simdx {
namespace {

// The prefix-scan concatenation of `bins` into a fresh buffer.
std::vector<VertexId> Joined(const ThreadBins& bins) {
  std::vector<VertexId> out;
  bins.ConcatenateInto(out);
  return out;
}

TEST(ClassifyDegreeTest, PaperThresholds) {
  // Section 4: separators at warp size (32) and block size (128).
  EXPECT_EQ(ClassifyDegree(0, 32, 128), KernelClass::kThread);
  EXPECT_EQ(ClassifyDegree(31, 32, 128), KernelClass::kThread);
  EXPECT_EQ(ClassifyDegree(32, 32, 128), KernelClass::kWarp);
  EXPECT_EQ(ClassifyDegree(127, 32, 128), KernelClass::kWarp);
  EXPECT_EQ(ClassifyDegree(128, 32, 128), KernelClass::kCta);
  EXPECT_EQ(ClassifyDegree(100000, 32, 128), KernelClass::kCta);
}

TEST(FrontierClassifierTest, SplitsByOutDegree) {
  // Star: hub has degree 200 (CTA), leaves degree 1 (Thread).
  const Graph g = Graph::FromEdges(GenerateStar(200), false);
  std::vector<VertexId> frontier = {0, 1, 2, 3};
  FrontierClassifier classifier;
  EXPECT_EQ(classifier.Classify(frontier, g, 32, 128, nullptr, 1), 203u)
      << "the frontier's out-edge sum";
  const WorkLists& lists = classifier.result();
  EXPECT_EQ(lists.large, std::vector<VertexId>{0});
  EXPECT_EQ(lists.small, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_TRUE(lists.medium.empty());
  EXPECT_EQ(lists.TotalSize(), 4u);
}

TEST(FrontierClassifierTest, PreservesOrderWithinClass) {
  const Graph g = Graph::FromEdges(GenerateChain(100), false);
  std::vector<VertexId> frontier = {50, 10, 70, 30};
  FrontierClassifier classifier;
  classifier.Classify(frontier, g, 32, 128, nullptr, 1);
  EXPECT_EQ(classifier.result().small, (std::vector<VertexId>{50, 10, 70, 30}));
}

TEST(WorkListsTest, EmptyAndClear) {
  WorkLists lists;
  EXPECT_TRUE(lists.Empty());
  lists.medium.push_back(3);
  EXPECT_FALSE(lists.Empty());
  lists.Clear();
  EXPECT_TRUE(lists.Empty());
}

TEST(ThreadBinsTest, RecordsUntilCapacity) {
  ThreadBins bins(/*num_threads=*/2, /*capacity=*/3);
  EXPECT_TRUE(bins.Record(0, 10));
  EXPECT_TRUE(bins.Record(0, 11));
  EXPECT_TRUE(bins.Record(0, 12));
  EXPECT_FALSE(bins.overflowed());
  EXPECT_FALSE(bins.Record(0, 13));  // bin 0 full
  EXPECT_TRUE(bins.overflowed());
  EXPECT_EQ(bins.total_recorded(), 3u);
  // The other bin still accepts (overflow is latched but per-bin capacity
  // still enforced independently).
  EXPECT_TRUE(bins.Record(1, 20));
}

TEST(ThreadBinsTest, ConcatenateJoinsInThreadOrder) {
  ThreadBins bins(3, 8);
  bins.Record(2, 30);
  bins.Record(0, 10);
  bins.Record(1, 20);
  bins.Record(0, 11);
  EXPECT_EQ(Joined(bins), (std::vector<VertexId>{10, 11, 20, 30}));
}

TEST(ThreadBinsTest, ThreadIdWrapsAroundBinCount) {
  ThreadBins bins(4, 8);
  bins.Record(5, 55);  // 5 % 4 == 1
  EXPECT_EQ(Joined(bins), std::vector<VertexId>{55});
}

TEST(ThreadBinsTest, ResetClearsEverything) {
  ThreadBins bins(2, 1);
  bins.Record(0, 1);
  bins.Record(0, 2);  // overflow
  EXPECT_TRUE(bins.overflowed());
  bins.Reset();
  EXPECT_FALSE(bins.overflowed());
  EXPECT_EQ(bins.total_recorded(), 0u);
  EXPECT_TRUE(Joined(bins).empty());
  EXPECT_TRUE(bins.Record(0, 3));
}

// Property: with W bins of capacity C, exactly W*C records fit.
class BinCapacitySweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(BinCapacitySweep, FillsToExactCapacity) {
  const auto [threads, capacity] = GetParam();
  ThreadBins bins(threads, capacity);
  uint32_t accepted = 0;
  for (uint32_t i = 0; i < threads * capacity + 50; ++i) {
    accepted += bins.Record(i % threads, i);
  }
  EXPECT_EQ(accepted, threads * capacity);
  EXPECT_TRUE(bins.overflowed());
  EXPECT_EQ(Joined(bins).size(), threads * capacity);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BinCapacitySweep,
                         ::testing::Values(std::pair{1u, 64u}, std::pair{8u, 8u},
                                           std::pair{64u, 1u}, std::pair{3u, 7u}));

}  // namespace
}  // namespace simdx
