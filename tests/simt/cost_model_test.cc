#include "simt/cost_model.h"

#include <gtest/gtest.h>

#include "simt/device.h"

namespace simdx {
namespace {

TEST(CostModelTest, CountersAccumulate) {
  CostCounters a;
  a.coalesced_words = 10;
  a.atomic_ops = 2;
  CostCounters b;
  b.coalesced_words = 5;
  b.kernel_launches = 1;
  a += b;
  EXPECT_EQ(a.coalesced_words, 15u);
  EXPECT_EQ(a.atomic_ops, 2u);
  EXPECT_EQ(a.kernel_launches, 1u);
}

TEST(CostModelTest, ZeroCountersZeroTime) {
  const SimTime t = EstimateTime(CostCounters{}, MakeK40(), 1.0);
  EXPECT_EQ(t.cycles, 0.0);
  EXPECT_EQ(t.ms, 0.0);
}

TEST(CostModelTest, CoalescedIsCheaperThanScattered) {
  CostCounters coalesced;
  coalesced.coalesced_words = 100000;
  CostCounters scattered;
  scattered.scattered_words = 100000;
  const DeviceSpec d = MakeK40();
  EXPECT_LT(EstimateTime(coalesced, d, 1.0).cycles,
            EstimateTime(scattered, d, 1.0).cycles / 8);
}

TEST(CostModelTest, AtomicContentionCostsExtra) {
  CostCounters uncontended;
  uncontended.atomic_ops = 1000;
  CostCounters contended = uncontended;
  contended.atomic_conflicts = 900;
  const DeviceSpec d = MakeK40();
  EXPECT_GT(EstimateTime(contended, d, 1.0).cycles,
            2 * EstimateTime(uncontended, d, 1.0).cycles);
}

TEST(CostModelTest, LowerOccupancySlowsParallelWork) {
  CostCounters c;
  c.coalesced_words = 1000000;
  const DeviceSpec d = MakeK40();
  EXPECT_GT(EstimateTime(c, d, 0.25).cycles, EstimateTime(c, d, 1.0).cycles * 2);
}

TEST(CostModelTest, LaunchOverheadIsSerial) {
  CostCounters c;
  c.kernel_launches = 100;
  const DeviceSpec d = MakeK40();
  // Occupancy must not dilute launch overhead.
  EXPECT_DOUBLE_EQ(EstimateTime(c, d, 0.1).cycles, EstimateTime(c, d, 1.0).cycles);
  EXPECT_DOUBLE_EQ(EstimateTime(c, d, 1.0).cycles, 100 * d.kernel_launch_cycles);
}

TEST(CostModelTest, FasterDeviceFinishesSooner) {
  CostCounters c;
  c.coalesced_words = 10000000;
  c.kernel_launches = 10;
  EXPECT_LT(EstimateTime(c, MakeP100(), 1.0).ms, EstimateTime(c, MakeK20(), 1.0).ms);
  EXPECT_LT(EstimateTime(c, MakeK40(), 1.0).ms, EstimateTime(c, MakeK20(), 1.0).ms);
}

TEST(CostModelTest, MillisecondsFollowClock) {
  CostCounters c;
  c.kernel_launches = 1;
  const DeviceSpec d = MakeK40();
  const SimTime t = EstimateTime(c, d, 1.0);
  EXPECT_DOUBLE_EQ(t.ms, t.cycles / (d.clock_ghz * 1e6));
}

TEST(CostModelTest, KernelResourceOverloadUsesOccupancy) {
  CostCounters c;
  c.coalesced_words = 1000000;
  const DeviceSpec d = MakeK40();
  const SimTime high = EstimateTime(c, d, KernelResources{26, 128});
  const SimTime low = EstimateTime(c, d, KernelResources{110, 128});
  EXPECT_GT(low.cycles, high.cycles);
}

TEST(CostModelTest, ToStringMentionsAllFields) {
  CostCounters c;
  c.coalesced_words = 1;
  c.scattered_words = 2;
  c.atomic_ops = 3;
  const std::string s = ToString(c);
  EXPECT_NE(s.find("coalesced=1"), std::string::npos);
  EXPECT_NE(s.find("scattered=2"), std::string::npos);
  EXPECT_NE(s.find("atomics=3"), std::string::npos);
}

}  // namespace
}  // namespace simdx
