// The simulated-statistics fingerprint the determinism gates freeze: the
// stats contract the run was accounted under (leading field — fingerprints
// recorded under different contracts are DIFFERENT BY DESIGN and must never
// compare equal), every CostCounters field, the derived times, the
// filter/direction patterns, and an FNV-1a hash over the raw output-value
// bytes (a race that corrupts values while leaving every counter intact must
// still trip the gate). ONE definition on purpose — host_scaling,
// push_replay, the differential determinism harness AND the resident query
// service's containment oracle must agree on what "identical stats" means or
// a divergence could pass one gate and fail the other. (It lives in core, not
// bench, precisely because the service compares per-query fingerprints
// against one-shot Engine::Run; bench/common.h re-exports it.)
//
// DELIBERATELY EXCLUDED: host-side telemetry — the buffered push record
// count (RunStats::push_records_buffered, whose thread-count determinism
// parallel_test's ExpectIdenticalRuns pins separately) and the control-plane
// accounting (outcome, attempts, resumes, checkpoints): a resumed or retried
// run must fingerprint-match an uninterrupted one.
#ifndef SIMDX_CORE_FINGERPRINT_H_
#define SIMDX_CORE_FINGERPRINT_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "core/result.h"

namespace simdx {

// FNV-1a, 64-bit: folds `size` bytes into `hash`, so chained calls hash the
// concatenation of their inputs. The one definition behind every FNV digest
// in the library: answer bytes, the checkpoint options digest, the result
// cache's key hash and the MS-BFS lane demux (algos/msbfs.h), which advances
// up to 64 lane digests four bytes at a time in one sweep.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t hash = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

// FNV-1a over raw answer bytes — the value-level half of StatsFingerprint,
// exposed on its own because the service's BATCHED answers need it: a
// multi-source run legitimately has different simulated stats than N
// one-shot runs (one traversal instead of N), so the batched/cached oracle
// is bit-equality of the PER-SOURCE answer bytes, not of the run stats.
inline uint64_t ValueBytesFingerprint(const void* data, size_t size) {
  return Fnv1a(data, size);
}

// `values_hash` must be ValueBytesFingerprint over r.values' bytes: a caller
// that already digested the answer (the query service) passes it in rather
// than hashing the values twice.
template <typename Value>
std::string StatsFingerprint(const RunResult<Value>& r, uint64_t values_hash) {
  std::ostringstream os;
  const CostCounters& c = r.stats.counters;
  os.precision(17);
  os << ToString(r.stats.contract) << '|' << r.stats.iterations << '|'
     << c.coalesced_words << '|'
     << c.scattered_words << '|' << c.atomic_ops << '|' << c.atomic_conflicts
     << '|' << c.alu_ops << '|' << c.kernel_launches << '|'
     << c.barrier_crossings << '|' << r.stats.time.ms << '|'
     << r.stats.time.cycles << '|' << r.stats.total_active << '|'
     << r.stats.total_edges_processed << '|' << r.stats.filter_pattern << '|'
     << r.stats.direction_pattern << '|' << r.values.size() << '|'
     << values_hash;
  return os.str();
}

template <typename Value>
std::string StatsFingerprint(const RunResult<Value>& r) {
  return StatsFingerprint(r, ValueBytesFingerprint(r.values.data(),
                                                   r.values.size() * sizeof(Value)));
}

}  // namespace simdx

#endif  // SIMDX_CORE_FINGERPRINT_H_
