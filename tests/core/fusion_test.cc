#include "core/fusion.h"

#include <gtest/gtest.h>

#include <vector>

#include "simt/device.h"

namespace simdx {
namespace {

// Table 2, "no fusion": push 26/27/28/24, pull 24/24/22/30.
TEST(FusionTest, StageRegistersMatchTable2) {
  EXPECT_EQ(StageRegisters(Direction::kPush, KernelStage::kThread), 26u);
  EXPECT_EQ(StageRegisters(Direction::kPush, KernelStage::kWarp), 27u);
  EXPECT_EQ(StageRegisters(Direction::kPush, KernelStage::kCta), 28u);
  EXPECT_EQ(StageRegisters(Direction::kPush, KernelStage::kTaskMgmt), 24u);
  EXPECT_EQ(StageRegisters(Direction::kPull, KernelStage::kThread), 24u);
  EXPECT_EQ(StageRegisters(Direction::kPull, KernelStage::kWarp), 24u);
  EXPECT_EQ(StageRegisters(Direction::kPull, KernelStage::kCta), 22u);
  EXPECT_EQ(StageRegisters(Direction::kPull, KernelStage::kTaskMgmt), 30u);
}

// Table 2, fused rows: selective 48/50, all-fusion 110.
TEST(FusionTest, FusedRegistersMatchTable2) {
  EXPECT_EQ(FusedRegisters(FusionPolicy::kSelective, Direction::kPush), 48u);
  EXPECT_EQ(FusedRegisters(FusionPolicy::kSelective, Direction::kPull), 50u);
  EXPECT_EQ(FusedRegisters(FusionPolicy::kAllFusion, Direction::kPush), 110u);
  EXPECT_EQ(FusedRegisters(FusionPolicy::kAllFusion, Direction::kPull), 110u);
}

TEST(FusionTest, NoFusionUsesWorstStage) {
  EXPECT_EQ(FusedRegisters(FusionPolicy::kNoFusion, Direction::kPush), 28u);
  EXPECT_EQ(FusedRegisters(FusionPolicy::kNoFusion, Direction::kPull), 30u);
}

TEST(FusionTest, ComposeApproximatesMeasuredTotals) {
  const uint32_t push[4] = {26, 27, 28, 24};
  const uint32_t all[8] = {26, 27, 28, 24, 24, 24, 22, 30};
  const uint32_t composed_push = ComposeRegisters(push, 4);
  const uint32_t composed_all = ComposeRegisters(all, 8);
  EXPECT_NEAR(composed_push, 48, 5);
  EXPECT_NEAR(composed_all, 110, 11);
}

IterationCharge Charge(FusionPolicy policy, Direction dir, bool first,
                       Direction prev, uint32_t stages) {
  return ChargeIteration(policy, 128, MakeK40(), dir, first, prev, stages);
}

// Charges a run's iterations in order, the way the engine does: the first
// iteration is flagged, and each later one is passed the direction before
// it. Returns each iteration's charge.
std::vector<IterationCharge> ChargeRun(FusionPolicy policy,
                                       const std::vector<Direction>& dirs,
                                       uint32_t stages) {
  std::vector<IterationCharge> charges;
  Direction prev = Direction::kPush;
  for (size_t i = 0; i < dirs.size(); ++i) {
    charges.push_back(Charge(policy, dirs[i], i == 0, prev, stages));
    prev = dirs[i];
  }
  return charges;
}

uint64_t Launches(const std::vector<IterationCharge>& charges) {
  uint64_t launches = 0;
  for (const IterationCharge& c : charges) {
    launches += c.launches;
  }
  return launches;
}

TEST(ChargeIterationTest, NoFusionLaunchesEveryStageEveryIteration) {
  for (const bool first : {true, false}) {
    for (const Direction prev : {Direction::kPush, Direction::kPull}) {
      const auto charge =
          Charge(FusionPolicy::kNoFusion, Direction::kPush, first, prev, 3);
      EXPECT_EQ(charge.launches, 4u);  // 3 compute + task management
      EXPECT_EQ(charge.barrier_crossings, 0u);
    }
  }
  const auto run = ChargeRun(FusionPolicy::kNoFusion,
                             std::vector<Direction>(10, Direction::kPush), 3);
  for (const IterationCharge& charge : run) {
    EXPECT_EQ(charge.launches, 4u);
    EXPECT_EQ(charge.barrier_crossings, 0u);
  }
  EXPECT_EQ(Launches(run), 40u);
}

TEST(ChargeIterationTest, SelectiveLaunchesOncePerPhase) {
  // push, push, pull, pull, pull, push — three phases.
  const auto run =
      ChargeRun(FusionPolicy::kSelective,
                {Direction::kPush, Direction::kPush, Direction::kPull,
                 Direction::kPull, Direction::kPull, Direction::kPush},
                3);
  for (const IterationCharge& charge : run) {
    EXPECT_EQ(charge.barrier_crossings, 2u);
  }
  EXPECT_EQ(Launches(run), 3u) << "the paper's Table 2: kernel launching count 3";
}

TEST(ChargeIterationTest, SelectiveChargeReadsOnlyTheFirstFlagAndPrevDir) {
  // A run's first iteration launches whatever prev_dir says; later
  // iterations launch exactly when the direction flips. Every iteration
  // crosses the barrier twice.
  struct Case {
    Direction dir;
    bool first;
    Direction prev;
    uint64_t launches;
  };
  const Case cases[] = {
      {Direction::kPush, true, Direction::kPush, 1},
      {Direction::kPush, true, Direction::kPull, 1},
      {Direction::kPull, false, Direction::kPull, 0},
      {Direction::kPull, false, Direction::kPush, 1},
  };
  for (const Case& c : cases) {
    const auto charge =
        Charge(FusionPolicy::kSelective, c.dir, c.first, c.prev, 3);
    EXPECT_EQ(charge.launches, c.launches);
    EXPECT_EQ(charge.barrier_crossings, 2u);
  }
}

TEST(ChargeIterationTest, AllFusionLaunchesExactlyOnce) {
  std::vector<Direction> dirs;
  for (uint32_t i = 0; i < 100; ++i) {
    dirs.push_back(i % 2 ? Direction::kPull : Direction::kPush);
  }
  const auto run = ChargeRun(FusionPolicy::kAllFusion, dirs, 3);
  for (const IterationCharge& charge : run) {
    EXPECT_EQ(charge.barrier_crossings, 2u);
  }
  EXPECT_EQ(Launches(run), 1u);
}

TEST(ChargeIterationTest, OccupancyOrderingAcrossPolicies) {
  const auto occupancy = [](FusionPolicy policy) {
    return Charge(policy, Direction::kPush, true, Direction::kPush, 3)
        .occupancy;
  };
  EXPECT_GT(occupancy(FusionPolicy::kNoFusion),
            occupancy(FusionPolicy::kSelective));
  EXPECT_GT(occupancy(FusionPolicy::kSelective),
            occupancy(FusionPolicy::kAllFusion));
}

TEST(ChargeIterationTest, EmptyStagesStillChargeTaskManagement) {
  const auto charge = Charge(FusionPolicy::kNoFusion, Direction::kPush, true,
                             Direction::kPush, 0);
  EXPECT_EQ(charge.launches, 1u);
}

}  // namespace
}  // namespace simdx
