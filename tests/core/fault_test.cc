#include "core/fault.h"

#include <gtest/gtest.h>

#include "core/checkpoint.h"

namespace simdx {
namespace {

TEST(FaultPointTest, NamesRoundTrip) {
  for (FaultPoint p :
       {FaultPoint::kIterationStart, FaultPoint::kCollect, FaultPoint::kReplay,
        FaultPoint::kApply, FaultPoint::kFrontier,
        FaultPoint::kCheckpointWrite}) {
    FaultPoint back = FaultPoint::kCollect;
    ASSERT_TRUE(FaultPointFromName(ToString(p), &back)) << ToString(p);
    EXPECT_EQ(back, p);
  }
  FaultPoint unused;
  EXPECT_FALSE(FaultPointFromName("no-such-point", &unused));
  EXPECT_FALSE(FaultPointFromName("", &unused));
}

TEST(FaultPointTest, NamesAreCaseInsensitive) {
  FaultPoint p = FaultPoint::kIterationStart;
  ASSERT_TRUE(FaultPointFromName("Replay", &p));
  EXPECT_EQ(p, FaultPoint::kReplay);
  ASSERT_TRUE(FaultPointFromName("CHECKPOINT-WRITE", &p));
  EXPECT_EQ(p, FaultPoint::kCheckpointWrite);
  ASSERT_TRUE(FaultPointFromName("Iteration-Start", &p));
  EXPECT_EQ(p, FaultPoint::kIterationStart);
  // Case folding must not make prefixes or extensions match.
  FaultPoint unused;
  EXPECT_FALSE(FaultPointFromName("Repla", &unused));
  EXPECT_FALSE(FaultPointFromName("Replays", &unused));
}

TEST(FaultRegistryTest, ParseSingleTerm) {
  FaultRegistry reg;
  ASSERT_TRUE(FaultRegistry::Parse("replay@3", &reg));
  EXPECT_FALSE(reg.empty());
  EXPECT_FALSE(reg.ShouldFail(FaultPoint::kReplay, 2));
  EXPECT_FALSE(reg.ShouldFail(FaultPoint::kCollect, 3));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kReplay, 3));
}

TEST(FaultRegistryTest, ParseMultiTermWithOptions) {
  FaultRegistry reg;
  ASSERT_TRUE(FaultRegistry::Parse(
      "collect@1,checkpoint-write@5:corrupt=2:seed=7,apply@9", &reg));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kCollect, 1));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kApply, 9));
  // The corruption-armed fault never fires via ShouldFail — it poisons the
  // checkpoint bytes instead.
  EXPECT_FALSE(reg.ShouldFail(FaultPoint::kCheckpointWrite, 5));
  const ArmedFault* corrupt = reg.TakeCorruption(5);
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->corrupt_section, 2);
  EXPECT_EQ(corrupt->seed, 7u);
  EXPECT_EQ(reg.TakeCorruption(5), nullptr);  // one-shot
}

TEST(FaultRegistryTest, ParseRejectsMalformedSpecs) {
  for (const char* bad :
       {"replay", "replay@", "replay@x", "@3", "bogus@3", "replay@3:corrupt",
        "replay@3:corrupt=x", "replay@3:frob=1", "replay@-1",
        "replay@4294967296", "replay@3,,collect@1"}) {
    FaultRegistry reg;
    EXPECT_FALSE(FaultRegistry::Parse(bad, &reg)) << bad;
  }
}

TEST(FaultRegistryTest, EmptySpecParsesToEmptyRegistry) {
  FaultRegistry reg;
  EXPECT_TRUE(FaultRegistry::Parse("", &reg));
  EXPECT_TRUE(reg.empty());
}

TEST(FaultRegistryTest, OneShotAcrossQueriesUntilReset) {
  FaultRegistry reg;
  ASSERT_TRUE(FaultRegistry::Parse("frontier@2", &reg));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kFrontier, 2));
  // Fired: a resumed run passing the same iteration sails through.
  EXPECT_FALSE(reg.ShouldFail(FaultPoint::kFrontier, 2));
  reg.Reset();
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kFrontier, 2));
}

TEST(FaultRegistryTest, DuplicateTermsAreRejectedWithClearError) {
  FaultRegistry reg;
  std::string error;
  EXPECT_FALSE(FaultRegistry::Parse("replay@3,replay@3", &reg, &error));
  EXPECT_NE(error.find("duplicate fault point replay@3"), std::string::npos)
      << error;
  // Rejection leaves the registry untouched — no partial arming.
  EXPECT_TRUE(reg.empty());
  // Case-insensitive names collide too: Replay@3 IS replay@3.
  error.clear();
  EXPECT_FALSE(FaultRegistry::Parse("replay@3,Replay@3", &reg, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // Same point at distinct iterations is fine.
  EXPECT_TRUE(FaultRegistry::Parse("replay@3,replay@4", &reg));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kReplay, 3));
  EXPECT_TRUE(reg.ShouldFail(FaultPoint::kReplay, 4));
  EXPECT_FALSE(reg.ShouldFail(FaultPoint::kReplay, 3));
}

TEST(FaultRegistryTest, ParseReportsTheOffendingTerm) {
  FaultRegistry reg;
  std::string error;
  EXPECT_FALSE(FaultRegistry::Parse("collect@1,bogus@3", &reg, &error));
  EXPECT_NE(error.find("bogus@3"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown fault point"), std::string::npos) << error;
  EXPECT_TRUE(reg.empty());
}

TEST(CorruptCheckpointSectionTest, FlippedByteFailsValidateDeterministically) {
  Checkpoint cp;
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kFrontier));
    for (uint32_t i = 0; i < 64; ++i) {
      w.Pod(i);
    }
  }
  cp.Seal();
  ASSERT_TRUE(cp.Validate(nullptr));

  Checkpoint a = cp;
  Checkpoint b = cp;
  CorruptCheckpointSection(&a, 0, 42);
  CorruptCheckpointSection(&b, 0, 42);
  uint32_t bad = 999;
  EXPECT_FALSE(a.Validate(&bad));
  EXPECT_EQ(bad, 0u);
  // Same seed corrupts the same byte: the torn write is replayable.
  EXPECT_EQ(a.sections()[0].bytes, b.sections()[0].bytes);
}

TEST(CorruptCheckpointSectionTest, OutOfRangeIndexHitsLastSectionEmptyPayloadPoisonsCrc) {
  Checkpoint cp;
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kEngineLoop));
    w.Pod(uint32_t{1});
  }
  cp.AddSection(CheckpointSectionId::kStats);  // empty payload
  cp.Seal();
  ASSERT_TRUE(cp.Validate(nullptr));
  CorruptCheckpointSection(&cp, 99, 0);  // clamps to the last (empty) section
  uint32_t bad = 999;
  EXPECT_FALSE(cp.Validate(&bad));
  EXPECT_EQ(bad, 1u);
}

}  // namespace
}  // namespace simdx
