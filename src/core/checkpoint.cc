#include "core/checkpoint.h"

#include <array>
#include <cstring>
#include <fstream>

#include "core/fingerprint.h"

namespace simdx {
namespace {

constexpr std::array<char, 8> kMagic = {'S', 'X', 'C', 'K', 'P', 'T', '0', '1'};

// Slicing-by-8 CRC-32 tables: table[0] is the classic bytewise table for the
// reflected 0xEDB88320 polynomial; table[k] advances a byte through k more
// zero bytes, which is what lets the hot loop fold 8 input bytes per
// iteration instead of one. Same polynomial, bit-identical digests — only
// the throughput changes (matters now that every wire frame body is CRC'd
// on both sides of the socket, not just checkpoint sections).
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

template <typename T>
uint64_t FnvField(const T& v, uint64_t h) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Fnv1a(&v, sizeof(T), h);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<std::array<uint32_t, 256>, 8> t = BuildCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // 8 bytes per iteration; the two-word load + xor matches the reflected
  // CRC's little-endian bit order, so this arm is LE-only (the bytewise
  // tail below is the portable fallback and handles the remainder here).
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint64_t SemanticOptionsDigest(const EngineOptions& o) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvField(static_cast<uint8_t>(o.fusion), h);
  h = FnvField(static_cast<uint8_t>(o.filter), h);
  h = FnvField(o.overflow_threshold, h);
  h = FnvField(o.small_degree_limit, h);
  h = FnvField(o.medium_degree_limit, h);
  h = FnvField(o.threads_per_cta, h);
  h = FnvField(o.sim_worker_threads, h);
  h = FnvField(o.max_iterations, h);
  h = FnvField(static_cast<uint8_t>(o.pre_combine_replay), h);
  h = FnvField(static_cast<uint64_t>(o.memory_budget_bytes), h);
  h = FnvField(o.fixed_sm_budget, h);
  h = FnvField(static_cast<uint8_t>(o.use_atomic_updates), h);
  h = FnvField(static_cast<uint8_t>(o.enable_vote_early_exit), h);
  h = FnvField(static_cast<uint8_t>(o.force_push), h);
  h = FnvField(static_cast<uint8_t>(o.force_pull), h);
  h = FnvField(static_cast<uint8_t>(o.classify_worklists), h);
  return h;
}

const char* Checkpoint::ToString(LoadStatus s) {
  switch (s) {
    case LoadStatus::kOk:
      return "ok";
    case LoadStatus::kBadMagic:
      return "bad-magic";
    case LoadStatus::kBadVersion:
      return "bad-version";
    case LoadStatus::kTruncated:
      return "truncated";
    case LoadStatus::kBadCrc:
      return "bad-crc";
  }
  return "?";
}

std::vector<uint8_t>& Checkpoint::AddSection(CheckpointSectionId id) {
  sections_.push_back(CheckpointSection{static_cast<uint32_t>(id), 0, {}});
  return sections_.back().bytes;
}

const CheckpointSection* Checkpoint::Find(CheckpointSectionId id) const {
  for (const CheckpointSection& s : sections_) {
    if (s.id == static_cast<uint32_t>(id)) {
      return &s;
    }
  }
  return nullptr;
}

void Checkpoint::Seal() {
  for (CheckpointSection& s : sections_) {
    s.crc = Crc32(s.bytes.data(), s.bytes.size());
  }
}

bool Checkpoint::Validate(uint32_t* bad_section) const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    const CheckpointSection& s = sections_[i];
    if (Crc32(s.bytes.data(), s.bytes.size()) != s.crc) {
      if (bad_section != nullptr) {
        *bad_section = static_cast<uint32_t>(i);
      }
      return false;
    }
  }
  return true;
}

void Checkpoint::Serialize(std::vector<uint8_t>* out) const {
  // Reserving the exact size up front means every append below fits, so
  // the stream is written without a reallocation.
  size_t size = kMagic.size() + sizeof(kCheckpointVersion) + sizeof(header) +
                sizeof(uint32_t);
  for (const CheckpointSection& s : sections_) {
    size += sizeof(s.id) + sizeof(uint64_t) + sizeof(s.crc) + s.bytes.size();
  }
  out->clear();
  out->reserve(size);
  ByteWriter w(out);
  w.Bytes(kMagic.data(), kMagic.size());
  w.Pod(kCheckpointVersion);
  w.Pod(header);
  w.Pod(static_cast<uint32_t>(sections_.size()));
  for (const CheckpointSection& s : sections_) {
    w.Pod(s.id);
    w.Pod(static_cast<uint64_t>(s.bytes.size()));
    w.Pod(s.crc);
    w.Bytes(s.bytes.data(), s.bytes.size());
  }
}

Checkpoint::LoadStatus Checkpoint::Deserialize(const uint8_t* data, size_t size,
                                               Checkpoint* out,
                                               uint32_t* bad_section) {
  ByteReader r(data, size);
  const uint8_t* magic = r.Raw(kMagic.size());
  if (magic == nullptr) {
    return LoadStatus::kTruncated;
  }
  if (std::memcmp(magic, kMagic.data(), kMagic.size()) != 0) {
    return LoadStatus::kBadMagic;
  }
  uint32_t version = 0;
  if (!r.Pod(&version)) {
    return LoadStatus::kTruncated;
  }
  if (version != kCheckpointVersion) {
    return LoadStatus::kBadVersion;
  }
  uint32_t count = 0;
  if (!r.Pod(&out->header) || !r.Pod(&count)) {
    return LoadStatus::kTruncated;
  }
  out->sections_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    CheckpointSection s;
    uint64_t length = 0;
    if (!r.Pod(&s.id) || !r.Pod(&length) || !r.Pod(&s.crc)) {
      return LoadStatus::kTruncated;
    }
    const uint8_t* payload = r.Raw(static_cast<size_t>(length));
    if (payload == nullptr) {
      return LoadStatus::kTruncated;
    }
    s.bytes.assign(payload, payload + length);
    if (Crc32(s.bytes.data(), s.bytes.size()) != s.crc) {
      if (bad_section != nullptr) {
        *bad_section = i;
      }
      return LoadStatus::kBadCrc;
    }
    out->sections_.push_back(std::move(s));
  }
  return LoadStatus::kOk;
}

bool Checkpoint::SaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  std::vector<uint8_t> bytes;
  Serialize(&bytes);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

Checkpoint::LoadStatus Checkpoint::LoadFile(const std::string& path,
                                            Checkpoint* out,
                                            uint32_t* bad_section) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return LoadStatus::kTruncated;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return Deserialize(bytes.data(), bytes.size(), out, bad_section);
}

void SerializeRunStats(const RunStats& stats, ByteWriter& w) {
  w.Pod(static_cast<uint8_t>(stats.failed));
  w.Pod(stats.total_active);
  w.Pod(stats.total_edges_processed);
  w.Pod(stats.checkpoints_written);
  w.Pod(stats.attempts);
  w.Pod(stats.resumes);
  const CostCounters& c = stats.counters;
  w.Pod(c.coalesced_words);
  w.Pod(c.scattered_words);
  w.Pod(c.atomic_ops);
  w.Pod(c.atomic_conflicts);
  w.Pod(c.alu_ops);
  w.Pod(c.kernel_launches);
  w.Pod(c.barrier_crossings);
  w.Pod(stats.time.cycles);
  w.Pod(stats.time.ms);
  w.Pod(stats.serial_ms);
  w.Str(stats.filter_pattern);
  w.Str(stats.direction_pattern);
  // IterationLog field by field: the struct has alignment padding, and raw
  // struct bytes would leak uninitialized padding into the checkpoint.
  w.Pod(static_cast<uint64_t>(stats.iteration_logs.size()));
  for (const IterationLog& log : stats.iteration_logs) {
    w.Pod(log.iteration);
    w.Pod(log.frontier_size);
    w.Pod(log.edges_processed);
    w.Pod(log.filter);
    w.Pod(log.direction);
    w.Pod(log.ms);
  }
}

bool DeserializeRunStats(ByteReader& r, RunStats* stats) {
  uint8_t failed = 0;
  r.Pod(&failed);
  stats->failed = failed != 0;
  r.Pod(&stats->total_active);
  r.Pod(&stats->total_edges_processed);
  r.Pod(&stats->checkpoints_written);
  r.Pod(&stats->attempts);
  r.Pod(&stats->resumes);
  CostCounters& c = stats->counters;
  r.Pod(&c.coalesced_words);
  r.Pod(&c.scattered_words);
  r.Pod(&c.atomic_ops);
  r.Pod(&c.atomic_conflicts);
  r.Pod(&c.alu_ops);
  r.Pod(&c.kernel_launches);
  r.Pod(&c.barrier_crossings);
  r.Pod(&stats->time.cycles);
  r.Pod(&stats->time.ms);
  r.Pod(&stats->serial_ms);
  r.Str(&stats->filter_pattern);
  r.Str(&stats->direction_pattern);
  uint64_t logs = 0;
  if (!r.Pod(&logs) || logs > r.remaining() / (2 * sizeof(uint32_t))) {
    return false;
  }
  stats->iteration_logs.clear();
  stats->iteration_logs.reserve(static_cast<size_t>(logs));
  for (uint64_t i = 0; i < logs; ++i) {
    IterationLog log;
    r.Pod(&log.iteration);
    r.Pod(&log.frontier_size);
    r.Pod(&log.edges_processed);
    r.Pod(&log.filter);
    r.Pod(&log.direction);
    if (!r.Pod(&log.ms)) {
      return false;
    }
    stats->iteration_logs.push_back(log);
  }
  return r.ok();
}

}  // namespace simdx
