#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace simdx {
namespace {

std::string TempPath(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "simdx_ckpt_test";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

TEST(Crc32Test, KnownAnswer) {
  // The CRC-32/IEEE check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, SeedChainsPartialComputations) {
  const char* s = "123456789";
  const uint32_t whole = Crc32(s, 9);
  const uint32_t chained = Crc32(s + 4, 5, Crc32(s, 4));
  EXPECT_EQ(chained, whole);
}

TEST(ByteRoundTripTest, PodStrVec) {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.Pod(uint32_t{0xDEADBEEF});
  w.Pod(double{3.5});
  w.Str("hello");
  w.Pod(uint64_t{3});
  const uint32_t vec_data[3] = {7, 8, 9};
  w.Bytes(vec_data, sizeof(vec_data));

  ByteReader r(bytes);
  uint32_t u = 0;
  double d = 0;
  std::string s;
  std::vector<uint32_t> v;
  EXPECT_TRUE(r.Pod(&u));
  EXPECT_TRUE(r.Pod(&d));
  EXPECT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.Vec(&v));
  EXPECT_EQ(u, 0xDEADBEEFu);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<uint32_t>{7, 8, 9}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteReaderTest, UnderrunFailsStickyNeverReadsPast) {
  const uint8_t bytes[4] = {1, 2, 3, 4};
  ByteReader r(bytes, sizeof(bytes));
  uint64_t big = 0;
  EXPECT_FALSE(r.Pod(&big));  // 8 bytes from a 4-byte buffer
  EXPECT_FALSE(r.ok());
  uint8_t small = 0;
  EXPECT_FALSE(r.Pod(&small));  // sticky: even an in-bounds read fails now
  EXPECT_FALSE(r.AtEnd());
}

TEST(ByteReaderTest, HostileVecCountRejectedBeforeAllocation) {
  // A count field claiming ~2^61 elements must be rejected by the
  // count > remaining/sizeof check, not drive a giant resize.
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.Pod(uint64_t{1} << 61);
  w.Pod(uint32_t{42});  // only 4 bytes of payload actually present
  ByteReader r(bytes);
  std::vector<uint32_t> v;
  EXPECT_FALSE(r.Vec(&v));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

Checkpoint MakeSample() {
  Checkpoint cp;
  cp.header.options_digest = 0x1234;
  cp.header.graph_vertices = 100;
  cp.header.graph_edges = 500;
  cp.header.value_size = 4;
  cp.header.iteration = 7;
  cp.header.contract = 1;
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kEngineLoop));
    w.Pod(uint8_t{1});
    w.Pod(uint64_t{99});
  }
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kFrontier));
    w.Pod(uint64_t{2});
    w.Pod(uint32_t{5});
    w.Pod(uint32_t{6});
  }
  cp.Seal();
  return cp;
}

TEST(CheckpointTest, SealValidateRoundTrip) {
  Checkpoint cp = MakeSample();
  uint32_t bad = 0;
  EXPECT_TRUE(cp.Validate(&bad));

  std::vector<uint8_t> bytes;
  cp.Serialize(&bytes);
  Checkpoint loaded;
  ASSERT_EQ(Checkpoint::Deserialize(bytes.data(), bytes.size(), &loaded, &bad),
            Checkpoint::LoadStatus::kOk);
  EXPECT_EQ(loaded.header.options_digest, cp.header.options_digest);
  EXPECT_EQ(loaded.header.graph_vertices, cp.header.graph_vertices);
  EXPECT_EQ(loaded.header.graph_edges, cp.header.graph_edges);
  EXPECT_EQ(loaded.header.iteration, cp.header.iteration);
  EXPECT_EQ(loaded.header.contract, cp.header.contract);
  ASSERT_EQ(loaded.sections().size(), cp.sections().size());
  for (size_t i = 0; i < cp.sections().size(); ++i) {
    EXPECT_EQ(loaded.sections()[i].id, cp.sections()[i].id);
    EXPECT_EQ(loaded.sections()[i].bytes, cp.sections()[i].bytes);
  }
  EXPECT_TRUE(loaded.Validate(nullptr));
}

TEST(CheckpointTest, FindLocatesSectionsById) {
  const Checkpoint cp = MakeSample();
  ASSERT_NE(cp.Find(CheckpointSectionId::kFrontier), nullptr);
  EXPECT_EQ(cp.Find(CheckpointSectionId::kFrontier)->id,
            static_cast<uint32_t>(CheckpointSectionId::kFrontier));
  EXPECT_EQ(cp.Find(CheckpointSectionId::kStats), nullptr);
}

TEST(CheckpointTest, FlippedPayloadByteFailsValidateAndNamesSection) {
  Checkpoint cp = MakeSample();
  cp.sections()[1].bytes[3] ^= 0xFF;
  uint32_t bad = 1234;
  EXPECT_FALSE(cp.Validate(&bad));
  EXPECT_EQ(bad, 1u);
}

TEST(CheckpointTest, DeserializeRejectsBadMagicVersionTruncation) {
  Checkpoint cp = MakeSample();
  std::vector<uint8_t> bytes;
  cp.Serialize(&bytes);

  Checkpoint out;
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_EQ(Checkpoint::Deserialize(bad.data(), bad.size(), &out, nullptr),
              Checkpoint::LoadStatus::kBadMagic);
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[8] += 1;  // version field follows the 8-byte magic
    EXPECT_EQ(Checkpoint::Deserialize(bad.data(), bad.size(), &out, nullptr),
              Checkpoint::LoadStatus::kBadVersion);
  }
  // EVERY prefix truncation must fail cleanly (this is the parser the
  // ASan+UBSan CI job exercises — no crash, no over-read, just kTruncated).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto status = Checkpoint::Deserialize(bytes.data(), cut, &out, nullptr);
    EXPECT_NE(status, Checkpoint::LoadStatus::kOk) << "prefix " << cut;
  }
}

TEST(CheckpointTest, DeserializeDetectsCorruptPayload) {
  Checkpoint cp = MakeSample();
  std::vector<uint8_t> bytes;
  cp.Serialize(&bytes);
  bytes.back() ^= 0x01;  // last payload byte of the last section
  Checkpoint out;
  uint32_t bad = 1234;
  EXPECT_EQ(Checkpoint::Deserialize(bytes.data(), bytes.size(), &out, &bad),
            Checkpoint::LoadStatus::kBadCrc);
  EXPECT_EQ(bad, 1u);
}

TEST(CheckpointTest, SaveLoadFile) {
  const Checkpoint cp = MakeSample();
  const std::string path = TempPath("sample.ckpt");
  ASSERT_TRUE(cp.SaveFile(path));
  Checkpoint loaded;
  ASSERT_EQ(Checkpoint::LoadFile(path, &loaded, nullptr),
            Checkpoint::LoadStatus::kOk);
  EXPECT_EQ(loaded.header.iteration, 7u);
  EXPECT_EQ(Checkpoint::LoadFile(TempPath("missing.ckpt"), &loaded, nullptr),
            Checkpoint::LoadStatus::kTruncated);
}

TEST(SemanticOptionsDigestTest, SemanticFieldsChangeIt) {
  const EngineOptions base;
  EngineOptions o = base;
  o.overflow_threshold = 65;
  EXPECT_NE(SemanticOptionsDigest(base), SemanticOptionsDigest(o));
  o = base;
  o.pre_combine_replay = true;
  EXPECT_NE(SemanticOptionsDigest(base), SemanticOptionsDigest(o));
  o = base;
  o.max_iterations = 5;
  EXPECT_NE(SemanticOptionsDigest(base), SemanticOptionsDigest(o));
}

TEST(SemanticOptionsDigestTest, HostRuntimeKnobsDoNot) {
  // The whole point of the digest: a checkpoint from an 8-thread run must
  // restore into a 1-thread engine (and vice versa). Faults arm through
  // RunControl, outside EngineOptions, so they cannot reach the digest.
  const EngineOptions base;
  EngineOptions o = base;
  o.host_threads = 8;
  o.parallel_replay_min_records = 0;
  o.profile_push_replay = true;
  o.keep_iteration_log = false;
  EXPECT_EQ(SemanticOptionsDigest(base), SemanticOptionsDigest(o));
}

TEST(RunStatsSerializationTest, RoundTripPreservesLoopCarriedFields) {
  RunStats stats;
  stats.failed = false;
  stats.total_active = 123;
  stats.total_edges_processed = 456;
  stats.checkpoints_written = 3;
  stats.attempts = 2;
  stats.resumes = 1;
  stats.counters.coalesced_words = 10;
  stats.counters.scattered_words = 11;
  stats.counters.atomic_ops = 12;
  stats.counters.atomic_conflicts = 13;
  stats.counters.alu_ops = 14;
  stats.counters.kernel_launches = 15;
  stats.counters.barrier_crossings = 16;
  stats.time.cycles = 17;
  stats.time.ms = 18.5;
  stats.serial_ms = 2.25;
  stats.filter_pattern = "OB=";
  stats.direction_pattern = "ppP";
  stats.iteration_logs.push_back(
      IterationLog{2, 40, 80, 'B', 'P', 1.5});

  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  SerializeRunStats(stats, w);
  ByteReader r(bytes);
  RunStats back;
  ASSERT_TRUE(DeserializeRunStats(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.total_active, stats.total_active);
  EXPECT_EQ(back.total_edges_processed, stats.total_edges_processed);
  EXPECT_EQ(back.checkpoints_written, stats.checkpoints_written);
  EXPECT_EQ(back.attempts, stats.attempts);
  EXPECT_EQ(back.resumes, stats.resumes);
  EXPECT_EQ(back.counters.coalesced_words, stats.counters.coalesced_words);
  EXPECT_EQ(back.counters.barrier_crossings, stats.counters.barrier_crossings);
  EXPECT_EQ(back.time.cycles, stats.time.cycles);
  EXPECT_EQ(back.time.ms, stats.time.ms);
  EXPECT_EQ(back.serial_ms, stats.serial_ms);
  EXPECT_EQ(back.filter_pattern, stats.filter_pattern);
  EXPECT_EQ(back.direction_pattern, stats.direction_pattern);
  ASSERT_EQ(back.iteration_logs.size(), 1u);
  EXPECT_EQ(back.iteration_logs[0].iteration, 2u);
  EXPECT_EQ(back.iteration_logs[0].frontier_size, 40u);
  EXPECT_EQ(back.iteration_logs[0].filter, 'B');
  EXPECT_EQ(back.iteration_logs[0].direction, 'P');
  EXPECT_EQ(back.iteration_logs[0].ms, 1.5);
}

TEST(RunStatsSerializationTest, HostileLogCountRejected) {
  RunStats stats;
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  SerializeRunStats(stats, w);
  // Overwrite the trailing iteration-log count (the last u64 written before
  // the logs themselves — with zero logs, the last 8 bytes) with a huge one.
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bytes.data() + bytes.size() - sizeof(huge), &huge, sizeof(huge));
  ByteReader r(bytes);
  RunStats back;
  EXPECT_FALSE(DeserializeRunStats(r, &back));
}

}  // namespace
}  // namespace simdx
