// Versioned, section-CRC'd snapshots of engine state at iteration
// boundaries — the survivability layer the ROADMAP's resident-service
// direction sits on.
//
// Why iteration boundaries: every piece of engine scratch (push record
// lanes, fold accumulators, classifier bins, online-filter bins) is dead between
// iterations by construction — the stamp-guarded arrays compare against the
// current iteration's stamp and the jit bins reset at every frontier build —
// so a snapshot needs only the loop-carried state, each fact once: the
// engine's LoopState (the filter that built the frontier and the previous
// direction are the only history the JIT filter and kernel fusion read), the
// curr metadata buffer (prev == curr at a boundary, checked when the
// snapshot is written; a restore seeds both from it), the frontier, the
// accumulated RunStats, and any program scheduler state (delta-stepping
// SSSP's pending buckets). The engine's restore path re-runs its normal
// per-run arming for everything else, which is what makes a resumed run
// bit-identical to an uninterrupted one under both stats contracts (pinned
// by tests/integration/resume_determinism_test).
//
// Layout: a header (format version, digest of the semantically relevant
// EngineOptions, graph shape, value width, iteration, stats contract)
// followed by typed sections, each carrying its own CRC-32. The reader
// treats the bytes as untrusted: every read is bounds-checked, every section
// is CRC-verified, and any mismatch surfaces as a clean load failure (the
// engine maps it to RunOutcome::kFaulted) — never UB. The CI ASan+UBSan job
// runs the malformed-input tests against exactly this parser.
#ifndef SIMDX_CORE_CHECKPOINT_H_
#define SIMDX_CORE_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/options.h"
#include "core/result.h"

namespace simdx {

// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one). `seed` chains partial
// computations: Crc32(b, n2, Crc32(a, n1)) == Crc32(concat(a, b)).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Digest over the EngineOptions fields that change SIMULATED semantics
// (counters, values, patterns, contract). Host-runtime knobs — host_threads,
// profile_push_replay, keep_iteration_log — are deliberately EXCLUDED: a
// checkpoint written by an 8-thread run must
// restore into a 1-thread engine (and vice versa) and still reproduce the
// uninterrupted fingerprint, which is exactly what the resume sweep asserts.
uint64_t SemanticOptionsDigest(const EngineOptions& options);

// Bumped whenever a section's byte layout changes, so a snapshot written by
// an older layout is refused as kBadVersion instead of misparsed.
inline constexpr uint32_t kCheckpointVersion = 4;

// Sections are written in this order (fault.h's corrupt=N counts in it).
// Ids are never reused; 3 is retired.
enum class CheckpointSectionId : uint32_t {
  kEngineLoop = 1,    // LoopState flags + push records buffered so far
  kValuesCurr = 2,    // metadata curr array, raw value bytes
  kFrontier = 4,      // the frontier the resumed iteration starts from
  kStats = 5,         // accumulated RunStats
  kProgramState = 6,  // optional program scheduler state (SSSP buckets)
};

struct CheckpointSection {
  uint32_t id = 0;
  uint32_t crc = 0;  // CRC-32 of `bytes`, computed by Checkpoint::Seal()
  std::vector<uint8_t> bytes;
};

struct CheckpointHeader {
  uint64_t options_digest = 0;
  uint64_t graph_vertices = 0;
  uint64_t graph_edges = 0;
  uint32_t value_size = 0;
  uint32_t iteration = 0;  // the iteration a resumed run starts AT
  uint8_t contract = 0;    // StatsContract, cross-checked on restore
};

// Append-only little-endian byte serializer for section payloads.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    out_->insert(out_->end(), p, p + sizeof(T));
  }
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }
  void Str(const std::string& s) {
    Pod(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }

 private:
  std::vector<uint8_t>* out_;
};

// Bounds-checked reader over untrusted bytes: every accessor reports
// failure instead of reading past the end, and once a read fails the reader
// stays failed (so callers may check ok() once at the end of a parse).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return ok_ && p_ == end_; }

  template <typename T>
  bool Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint8_t* p = Raw(sizeof(T));
    if (p == nullptr) {
      return false;
    }
    std::memcpy(v, p, sizeof(T));
    return true;
  }
  bool Str(std::string* s) {
    uint64_t size = 0;
    if (!Pod(&size) || size > remaining()) {
      ok_ = false;
      return false;
    }
    s->assign(reinterpret_cast<const char*>(p_), static_cast<size_t>(size));
    p_ += size;
    return true;
  }
  template <typename T>
  bool Vec(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    if (!Pod(&count) || count > remaining() / sizeof(T)) {
      ok_ = false;
      return false;
    }
    v->resize(static_cast<size_t>(count));
    if (count != 0) {
      std::memcpy(v->data(), p_, static_cast<size_t>(count) * sizeof(T));
      p_ += count * sizeof(T);
    }
    return true;
  }
  // Raw view of the next `size` bytes (advances); nullptr on underrun.
  const uint8_t* Raw(size_t size) {
    if (!ok_ || size > remaining()) {
      ok_ = false;
      return nullptr;
    }
    const uint8_t* p = p_;
    p_ += size;
    return p;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

class Checkpoint {
 public:
  enum class LoadStatus : uint8_t {
    kOk = 0,
    kBadMagic,
    kBadVersion,
    kTruncated,
    kBadCrc,
  };
  static const char* ToString(LoadStatus s);

  CheckpointHeader header;

  // Appends a section and returns its payload buffer to serialize into.
  std::vector<uint8_t>& AddSection(CheckpointSectionId id);
  const CheckpointSection* Find(CheckpointSectionId id) const;
  const std::vector<CheckpointSection>& sections() const { return sections_; }
  std::vector<CheckpointSection>& sections() { return sections_; }

  // Computes every section's CRC. Call after the last AddSection.
  void Seal();
  // Recomputes and compares every section CRC; on failure reports the index
  // of the first bad section through `bad_section` (may be null). This is
  // what detects a simulated torn write (fault.h corruption) — and what
  // RobustRun consults before accepting a checkpoint as a resume point.
  bool Validate(uint32_t* bad_section) const;

  // Byte-stream container: magic, version, header, CRC'd sections.
  void Serialize(std::vector<uint8_t>* out) const;
  static LoadStatus Deserialize(const uint8_t* data, size_t size,
                                Checkpoint* out, uint32_t* bad_section);

  bool SaveFile(const std::string& path) const;
  static LoadStatus LoadFile(const std::string& path, Checkpoint* out,
                             uint32_t* bad_section);

 private:
  std::vector<CheckpointSection> sections_;
};

// RunStats (de)serialization for the kStats section: exactly the fields that
// are live DURING the iteration loop (accumulators, patterns, logs, control
// accounting). Fields the engine derives at the end of Run — iterations,
// converged, the record-stream telemetry — are re-derived on resume.
void SerializeRunStats(const RunStats& stats, ByteWriter& w);
bool DeserializeRunStats(ByteReader& r, RunStats* stats);

}  // namespace simdx

#endif  // SIMDX_CORE_CHECKPOINT_H_
