// Bounded LRU result cache for the resident query service: answers served
// from here never touch a worker arena — the second client asking for the
// same traversal costs a map probe, not an engine run. Entries are keyed on
// everything that could legally change the answer:
//   (kind, source, params-hash, graph version)
// The params hash folds in the per-kind knobs (k for k-Core; the other kinds
// have none beyond the source — epsilon and the engine configuration are
// fixed per service). The graph version is a client-driven epoch: the service
// purges the cache whenever it is bumped (SetGraphVersion), so a reloaded
// graph can never serve a stale answer.
//
// What a hit returns is the VERBATIM answer of the run that filled the
// entry: its fingerprint, its value-byte digest, its RunStats, its raw value
// bytes. The service only fills entries from clean first-attempt runs (no
// per-query faults, no retries), so a hit is bit-equal to what a fresh
// engine run would produce — the property the cache tests gate on.
//
// Externally synchronized: the service calls Lookup/Insert under its own
// admission mutex (hits resolve inline in Submit, fills happen at
// retirement, both already hold it). Keeping the lock outside makes
// hit-count accounting and the LRU reorder one atomic step.
#ifndef SIMDX_SERVICE_CACHE_H_
#define SIMDX_SERVICE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fingerprint.h"
#include "core/result.h"
#include "graph/types.h"

namespace simdx::service {

struct CacheKey {
  uint8_t kind = 0;          // QueryKind, widened
  VertexId source = 0;       // 0 for sourceless kinds (k-Core)
  uint64_t params_hash = 0;  // per-kind knobs (k for k-Core)
  uint64_t graph_version = 0;

  bool operator==(const CacheKey& o) const {
    return kind == o.kind && source == o.source &&
           params_hash == o.params_hash && graph_version == o.graph_version;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    // FNV-1a over the four fields; collisions only cost a bucket probe.
    const uint64_t fields[4] = {k.kind, k.source, k.params_hash,
                                k.graph_version};
    return static_cast<size_t>(Fnv1a(fields, sizeof(fields)));
  }
};

// The answer a hit replays. `stats` and `fingerprint` are the filling run's
// (for a batch-filled entry that is the batch run's telemetry); the
// value-level fields are always the individual query's own answer, which is
// what the one-shot oracle compares.
struct CachedAnswer {
  std::string fingerprint;        // StatsFingerprint of the filling run
  uint64_t value_fingerprint = 0; // FNV-1a over the query's output values
  RunStats stats;
  std::vector<uint8_t> value_bytes;
};

class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }
  uint64_t evictions() const { return evictions_; }

  // Copies the entry into *out and promotes it to most-recently-used. The
  // value bytes are copied only when `want_values`; otherwise
  // out->value_bytes is left empty, so a digest-only hit copies no answer.
  bool Lookup(const CacheKey& key, bool want_values, CachedAnswer* out) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    const CachedAnswer& entry = lru_.front().second;
    out->fingerprint = entry.fingerprint;
    out->value_fingerprint = entry.value_fingerprint;
    out->stats = entry.stats;
    if (want_values) {
      out->value_bytes = entry.value_bytes;
    } else {
      out->value_bytes.clear();
    }
    return true;
  }

  // Inserts (or refreshes) an entry, evicting the least-recently-used one
  // when at capacity. No-op when capacity is 0.
  void Insert(const CacheKey& key, CachedAnswer answer) {
    if (capacity_ == 0) {
      return;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(answer);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.emplace_front(key, std::move(answer));
    index_[key] = lru_.begin();
  }

  void Clear() {
    lru_.clear();
    index_.clear();
  }

 private:
  size_t capacity_;
  std::list<std::pair<CacheKey, CachedAnswer>> lru_;  // front = most recent
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> index_;
  uint64_t evictions_ = 0;
};

}  // namespace simdx::service

#endif  // SIMDX_SERVICE_CACHE_H_
