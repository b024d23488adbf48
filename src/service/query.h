// Typed queries for the resident graph query service (service.h): what a
// client may ask of a loaded graph, what admission can say about it, and
// what comes back. Deliberately engine-free — these types compile without
// pulling in the engine template so clients (and the qps bench's JSON layer)
// can include them cheaply.
#ifndef SIMDX_SERVICE_QUERY_H_
#define SIMDX_SERVICE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "graph/types.h"

namespace simdx::service {

enum class QueryKind : uint8_t {
  kBfs = 0,
  kSssp = 1,
  kPpr = 2,
  kKCore = 3,
  // Sentinel, NOT a kind: the service's per-kind arrays (EWMA estimators,
  // queued-by-kind backlog counts) are sized by it and statically pinned to
  // it, so adding a kind without growing them is a compile error instead of
  // a silent out-of-bounds index. Every switch over QueryKind lists it
  // explicitly (as unreachable) to keep -Wswitch exhaustiveness working.
  kCount = 4,
};

inline constexpr uint8_t kQueryKindCount =
    static_cast<uint8_t>(QueryKind::kCount);

// Bound guard for kind bytes of UNTRUSTED origin — a decoded wire byte, a
// caller-cast integer. Admission applies it before any per-kind array is
// indexed: an out-of-range kind is kRejectedInvalid, never an index.
inline constexpr bool IsValidQueryKind(uint8_t raw) {
  return raw < kQueryKindCount;
}

inline const char* ToString(QueryKind k) {
  switch (k) {
    case QueryKind::kBfs:
      return "bfs";
    case QueryKind::kSssp:
      return "sssp";
    case QueryKind::kPpr:
      return "ppr";
    case QueryKind::kKCore:
      return "kcore";
    case QueryKind::kCount:
      break;  // sentinel, unreachable for valid kinds
  }
  return "?";
}

// One client request. Everything optional defaults to "no constraint".
struct Query {
  QueryKind kind = QueryKind::kBfs;
  // Traversal/ranking source (ignored by kKCore). Validated against the
  // loaded graph at admission.
  VertexId source = 0;
  // Coreness threshold for kKCore (ignored otherwise; 0 is invalid).
  uint32_t k = 16;
  // End-to-end deadline from Submit(), queueing included. 0 = none.
  // RELATIVE milliseconds — this is the ONLY public deadline contract, and
  // it is what the wire codec carries (codec.h deadline_rel_ms): the
  // service's absolute steady-clock domain is private to its process, so a
  // remote client could never produce a meaningful absolute value. Submit
  // converts to absolute on ITS clock at admission, nowhere else.
  // Admission sheds predictively (kShedDeadline) when the backlog estimate
  // already exceeds it; a query whose deadline lapses while queued comes
  // back kDeadlineExceeded without running; the remainder becomes the run's
  // time budget.
  double deadline_ms = 0.0;
  // Per-query fault arming (FaultRegistry::Parse grammar), for trusted
  // in-process callers only: the wire request has no such field, so a
  // socket peer cannot arm faults. Parsed at admission: an unparseable spec
  // is REJECTED (kRejectedInvalid) rather than handed to the engine, whose
  // own parse failure aborts the process — a malformed query must never
  // take the service down.
  std::string fault_spec;
  // Total RobustRun attempts (including the first). 0 = service default.
  uint32_t max_attempts = 0;
  // Copy the output values into QueryResult::value_bytes. Off by default:
  // the fingerprint already covers the value bytes, and most load-test
  // clients only want the digest.
  bool want_values = false;
};

// What admission said. Only kAdmitted yields a future.
enum class AdmissionVerdict : uint8_t {
  kAdmitted = 0,
  kShedQueueFull = 1,   // bounded queue at capacity
  kShedDeadline = 2,    // backlog estimate already exceeds the deadline
  kRejectedInvalid = 3, // malformed query (bad source, k == 0, bad faults...)
};

inline const char* ToString(AdmissionVerdict v) {
  switch (v) {
    case AdmissionVerdict::kAdmitted:
      return "admitted";
    case AdmissionVerdict::kShedQueueFull:
      return "shed-queue-full";
    case AdmissionVerdict::kShedDeadline:
      return "shed-deadline";
    case AdmissionVerdict::kRejectedInvalid:
      return "rejected-invalid";
  }
  return "?";
}

// How the service produced an answer. Solo runs carry the one-shot
// StatsFingerprint contract; batched and cached answers carry the
// value-level contract instead (value_fingerprint below) — a multi-source
// batch legitimately has different run telemetry than N solo runs, and a
// cache hit replays the telemetry of whichever run filled the entry.
enum class ServedBy : uint8_t {
  kSolo = 0,     // dedicated engine run for this query alone
  kBatched = 1,  // demuxed out of a coalesced multi-source run
  kCache = 2,    // replayed from the result cache, no engine touched
};

inline const char* ToString(ServedBy s) {
  switch (s) {
    case ServedBy::kSolo:
      return "solo";
    case ServedBy::kBatched:
      return "batched";
    case ServedBy::kCache:
      return "cache";
  }
  return "?";
}

struct QueryResult {
  uint64_t query_id = 0;
  QueryKind kind = QueryKind::kBfs;
  ServedBy served = ServedBy::kSolo;
  // Terminal outcome: kCompleted/kResumed (answer is valid), kCancelled,
  // kDeadlineExceeded (possibly without ever running), kFaulted (injected
  // fault survived every retry), kCheckpointSinkFailed.
  RunOutcome outcome = RunOutcome::kCompleted;
  uint32_t attempts = 0;      // RobustRun attempts actually launched
  double queue_ms = 0.0;      // Submit -> dequeue
  double run_ms = 0.0;        // dequeue -> terminal (0 if never ran)
  // StatsFingerprint of the run that produced the answer — for a SOLO query
  // byte-comparable against a one-shot Engine::Run oracle; for a batched
  // query this is the BATCH run's fingerprint (shared by its members).
  // Empty when the query never produced an answer.
  std::string fingerprint;
  // FNV-1a over this query's own output-value bytes, whichever way it was
  // served: the universal answer oracle. For a BFS query it hashes the level
  // array, so solo, batched and cached answers to the same question carry
  // the same digest — the bit-equality contract the batching tests gate on.
  uint64_t value_fingerprint = 0;
  RunStats stats;
  // Raw output-value bytes (want_values only).
  std::vector<uint8_t> value_bytes;

  bool ok() const {
    return outcome == RunOutcome::kCompleted || outcome == RunOutcome::kResumed;
  }
};

// Monotonic service-lifetime ledger. Identities the qps bench gates on:
//   submitted == admitted + shed_queue_full + shed_deadline + rejected_invalid
//   admitted  == completed + faulted + cancelled + deadline_exceeded
//               + sink_failed   (once Drain() has returned)
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_deadline = 0;
  uint64_t rejected_invalid = 0;
  uint64_t completed = 0;          // kCompleted or kResumed
  uint64_t faulted = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t sink_failed = 0;
  uint64_t retries = 0;            // attempts beyond the first, summed
  uint64_t expired_in_queue = 0;   // deadline_exceeded without ever running
  // Batching/caching telemetry. Cache hits count as admitted + completed in
  // the identities above (they ARE answered queries); batched_queries counts
  // members demuxed out of multi-source runs (each also in completed &co).
  uint64_t batches = 0;            // coalesced multi-source runs launched
  uint64_t batched_queries = 0;    // queries served out of those runs
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;       // lookups that went on to admission
  uint64_t cache_evictions = 0;    // LRU evictions (capacity pressure)
  // Overload-rung transitions, in order: strict admission engaging
  // (`iteration` 1) and stepping down (`iteration` 0).
  std::vector<DowngradeEvent> ladder;
};

}  // namespace simdx::service

#endif  // SIMDX_SERVICE_QUERY_H_
