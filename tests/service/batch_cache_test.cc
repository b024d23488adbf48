// Dispatch-side batching + result cache: the throughput layers must never
// change an ANSWER. The universal oracle is the value_fingerprint (FNV-1a
// over the query's own output bytes): solo, batched and cached answers to
// the same question must carry the same digest — and with want_values on,
// the same bytes. start_paused composes the queue deterministically so a
// test can watch exactly one dispatch decision ("do these N queries
// coalesce into one multi-source run?").
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "algos/algos.h"
#include "bench/common.h"
#include "core/fingerprint.h"
#include "graph/generators.h"
#include "service/cache.h"
#include "service/service.h"
#include "simt/device.h"

namespace simdx::service {
namespace {

Graph TestGraph() { return Graph::FromEdges(GenerateRmat(8, 8, 3), false); }

ServiceOptions BatchingService(uint32_t batch_max) {
  ServiceOptions o;
  o.workers = 1;  // one dispatcher -> one deterministic coalescing decision
  o.queue_capacity = 128;
  o.engine.sim_worker_threads = 64;
  o.batch_max = batch_max;
  o.start_paused = true;
  return o;
}

ServiceOptions CachingService(size_t cache_capacity) {
  ServiceOptions o;
  o.workers = 1;
  o.queue_capacity = 64;
  o.engine.sim_worker_threads = 64;
  o.cache_capacity = cache_capacity;
  return o;
}

std::vector<uint8_t> Bytes(const std::vector<uint32_t>& v) {
  std::vector<uint8_t> out(v.size() * sizeof(uint32_t));
  if (!out.empty()) {
    std::memcpy(out.data(), v.data(), out.size());
  }
  return out;
}

Query BfsQuery(VertexId source, bool want_values = true) {
  Query q;
  q.kind = QueryKind::kBfs;
  q.source = source;
  q.want_values = want_values;
  return q;
}

// The headline contract: 48 queued BFS queries (including duplicates — two
// clients may well ask the same question) coalesce into ONE multi-source
// run, and every demuxed answer is byte-identical to its solo one-shot
// oracle.
TEST(BatchCacheTest, BatchedAnswersAreBitEqualToSoloOracles) {
  const Graph g = TestGraph();
  GraphService svc(g, BatchingService(64));

  std::vector<VertexId> sources;
  for (VertexId v = 0; v < 40; ++v) {
    sources.push_back(v * 3 % g.vertex_count());
  }
  for (VertexId v = 0; v < 8; ++v) {
    sources.push_back(sources[v]);  // duplicates share a lane
  }
  std::vector<GraphService::Ticket> tickets;
  for (VertexId s : sources) {
    auto t = svc.Submit(BfsQuery(s));
    ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted);
    tickets.push_back(std::move(t));
  }
  svc.Resume();
  svc.Drain();

  EngineOptions oracle_options;
  oracle_options.sim_worker_threads = 64;
  std::string shared_fp;
  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryResult r = tickets[i].result.get();
    ASSERT_TRUE(r.ok()) << "query " << i;
    EXPECT_EQ(r.served, ServedBy::kBatched) << "query " << i;
    const auto oracle = RunBfs(g, sources[i], MakeK40(), oracle_options);
    const std::vector<uint8_t> expected = Bytes(oracle.values);
    EXPECT_EQ(r.value_bytes, expected) << "query " << i;
    EXPECT_EQ(r.value_fingerprint,
              ValueBytesFingerprint(expected.data(), expected.size()))
        << "query " << i;
    // Members share the batch run's stats fingerprint.
    if (i == 0) {
      shared_fp = r.fingerprint;
      EXPECT_FALSE(shared_fp.empty());
    } else {
      EXPECT_EQ(r.fingerprint, shared_fp) << "query " << i;
    }
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 1u) << "one worker, one wakeup, one coalesced run";
  EXPECT_EQ(s.batched_queries, sources.size());
  EXPECT_EQ(s.completed, s.admitted);
}

// batch_max == 1 (the default) means the batching code path is never taken:
// sequential clients keep the solo one-shot fingerprint contract untouched.
TEST(BatchCacheTest, SingletonDispatchKeepsSoloContract) {
  const Graph g = TestGraph();
  GraphService svc(g, BatchingService(64));
  auto t = svc.Submit(BfsQuery(3));
  ASSERT_EQ(t.verdict, AdmissionVerdict::kAdmitted);
  svc.Resume();
  const QueryResult r = t.result.get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.served, ServedBy::kSolo);

  EngineOptions o;
  o.sim_worker_threads = 64;
  BfsProgram program;
  program.source = 3;
  Engine<BfsProgram> engine(g, MakeK40(), o);
  EXPECT_EQ(r.fingerprint, bench::StatsFingerprint(engine.Run(program)));
  EXPECT_EQ(svc.stats().batches, 0u);
}

// Fault-armed queries never batch — their containment contract ("THIS run
// faults or survives its own retry loop") is per-query by design. They also
// must not break coalescing for the clean queries queued around them.
TEST(BatchCacheTest, FaultArmedQueriesNeverBatchButNeighborsStillCoalesce) {
  const Graph g = TestGraph();
  GraphService svc(g, BatchingService(64));

  auto clean_a = svc.Submit(BfsQuery(1));
  Query armed = BfsQuery(2);
  armed.fault_spec = "frontier@1";
  armed.max_attempts = 2;
  auto armed_t = svc.Submit(armed);
  auto clean_b = svc.Submit(BfsQuery(4));
  ASSERT_EQ(clean_a.verdict, AdmissionVerdict::kAdmitted);
  ASSERT_EQ(armed_t.verdict, AdmissionVerdict::kAdmitted);
  ASSERT_EQ(clean_b.verdict, AdmissionVerdict::kAdmitted);
  svc.Resume();
  svc.Drain();

  const QueryResult ra = clean_a.result.get();
  const QueryResult rf = armed_t.result.get();
  const QueryResult rb = clean_b.result.get();
  // The clean pair coalesced PAST the armed query sitting between them.
  EXPECT_EQ(ra.served, ServedBy::kBatched);
  EXPECT_EQ(rb.served, ServedBy::kBatched);
  // The armed query ran alone and survived via its own retry loop.
  EXPECT_EQ(rf.served, ServedBy::kSolo);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf.attempts, 2u);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_queries, 2u);
  EXPECT_EQ(s.retries, 1u);
}

// Cancellation and in-queue deadline expiry are decided at assembly, before
// any lane is granted: dead members retire with run_ms == 0 and the
// survivors still coalesce.
TEST(BatchCacheTest, AssemblyTriagesCancelledAndExpiredMembers) {
  const Graph g = TestGraph();
  GraphService svc(g, BatchingService(64));

  auto alive_a = svc.Submit(BfsQuery(1));
  auto doomed = svc.Submit(BfsQuery(2));
  Query expiring = BfsQuery(3);
  expiring.deadline_ms = 1e-3;  // lapses while the queue is still paused
  auto expired = svc.Submit(expiring);
  auto alive_b = svc.Submit(BfsQuery(4));
  ASSERT_EQ(expired.verdict, AdmissionVerdict::kAdmitted);
  ASSERT_TRUE(svc.Cancel(doomed.query_id));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.Resume();
  svc.Drain();

  const QueryResult rc = doomed.result.get();
  EXPECT_EQ(rc.outcome, RunOutcome::kCancelled);
  EXPECT_EQ(rc.run_ms, 0.0) << "cancelled members must not run";
  const QueryResult re = expired.result.get();
  EXPECT_EQ(re.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(re.run_ms, 0.0) << "expired members must not run";
  EXPECT_TRUE(alive_a.result.get().ok());
  EXPECT_TRUE(alive_b.result.get().ok());
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_queries, 2u) << "only the survivors count as batched";
  EXPECT_EQ(s.expired_in_queue, 1u);
  EXPECT_EQ(s.cancelled, 1u);
}

// A cache hit replays the filling run's answer bit-for-bit, without touching
// a worker arena (attempts == 0).
TEST(BatchCacheTest, CacheHitIsBitEqualToTheFillingRun) {
  const Graph g = TestGraph();
  GraphService svc(g, CachingService(8));

  auto first = svc.Submit(BfsQuery(5));
  ASSERT_EQ(first.verdict, AdmissionVerdict::kAdmitted);
  const QueryResult miss = first.result.get();
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.served, ServedBy::kSolo);

  auto second = svc.Submit(BfsQuery(5));
  ASSERT_EQ(second.verdict, AdmissionVerdict::kAdmitted);
  const QueryResult hit = second.result.get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.served, ServedBy::kCache);
  EXPECT_EQ(hit.attempts, 0u) << "a hit launches no engine run";
  EXPECT_EQ(hit.value_bytes, miss.value_bytes);
  EXPECT_EQ(hit.value_fingerprint, miss.value_fingerprint);
  EXPECT_EQ(hit.fingerprint, miss.fingerprint);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  // A hit is an answered query: the ledger identities hold without a
  // special row.
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.completed, 2u);
}

// k-Core keys on k, not source: different thresholds must not collide.
TEST(BatchCacheTest, KCoreCacheKeysOnThreshold) {
  const Graph g = TestGraph();
  GraphService svc(g, CachingService(8));
  Query k2;
  k2.kind = QueryKind::kKCore;
  k2.k = 2;
  k2.want_values = true;
  Query k3 = k2;
  k3.k = 3;

  const QueryResult r2 = svc.Submit(k2).result.get();
  const QueryResult r3 = svc.Submit(k3).result.get();
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.served, ServedBy::kSolo) << "k=3 must not hit the k=2 entry";
  const QueryResult r2_again = svc.Submit(k2).result.get();
  EXPECT_EQ(r2_again.served, ServedBy::kCache);
  EXPECT_EQ(r2_again.value_bytes, r2.value_bytes);
}

// Capacity pressure evicts least-recently-used entries; the evicted question
// misses again and re-fills.
TEST(BatchCacheTest, LruEvictionUnderCapacityPressure) {
  const Graph g = TestGraph();
  GraphService svc(g, CachingService(2));
  ASSERT_TRUE(svc.Submit(BfsQuery(1)).result.get().ok());  // fill {1}
  ASSERT_TRUE(svc.Submit(BfsQuery(2)).result.get().ok());  // fill {1,2}
  ASSERT_TRUE(svc.Submit(BfsQuery(3)).result.get().ok());  // evict 1 -> {2,3}
  const QueryResult r1 = svc.Submit(BfsQuery(1)).result.get();
  EXPECT_EQ(r1.served, ServedBy::kSolo) << "evicted entries miss again";
  ASSERT_TRUE(r1.ok());  // re-fill evicts 2 -> {3,1}
  EXPECT_EQ(svc.Submit(BfsQuery(3)).result.get().served, ServedBy::kCache);
  const ServiceStats s = svc.stats();
  EXPECT_GE(s.cache_evictions, 2u);
  EXPECT_EQ(s.cache_hits, 1u);
}

// Bumping the graph version makes every cached answer unreachable: stale
// epochs must never be served, and the same question re-runs and re-fills
// under the new version.
TEST(BatchCacheTest, GraphVersionBumpInvalidatesCache) {
  const Graph g = TestGraph();
  GraphService svc(g, CachingService(8));
  const QueryResult fill = svc.Submit(BfsQuery(7)).result.get();
  ASSERT_TRUE(fill.ok());
  EXPECT_EQ(svc.Submit(BfsQuery(7)).result.get().served, ServedBy::kCache);

  svc.SetGraphVersion(1);
  EXPECT_EQ(svc.graph_version(), 1u);
  const QueryResult after = svc.Submit(BfsQuery(7)).result.get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.served, ServedBy::kSolo) << "old epoch must not be served";
  EXPECT_EQ(after.value_bytes, fill.value_bytes)
      << "the CSR itself is immutable; only the epoch moved";
  // Re-filled under version 1: hits again.
  EXPECT_EQ(svc.Submit(BfsQuery(7)).result.get().served, ServedBy::kCache);
  // An idempotent SetGraphVersion does not purge.
  svc.SetGraphVersion(1);
  EXPECT_EQ(svc.Submit(BfsQuery(7)).result.get().served, ServedBy::kCache);
}

// Fault-armed queries bypass the cache BOTH ways: they neither hit (their
// contract is "this specific run faults or survives") nor fill (a retried
// answer must never masquerade as a fresh untroubled run).
TEST(BatchCacheTest, FaultArmedQueriesBypassTheCache) {
  const Graph g = TestGraph();
  GraphService svc(g, CachingService(8));
  ASSERT_TRUE(svc.Submit(BfsQuery(9)).result.get().ok());  // clean fill

  Query armed = BfsQuery(9);
  armed.fault_spec = "frontier@1";
  armed.max_attempts = 2;
  const QueryResult rf = svc.Submit(armed).result.get();
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rf.served, ServedBy::kSolo) << "armed queries must actually run";
  EXPECT_EQ(rf.attempts, 2u);
  // The clean entry is still there and still clean.
  const QueryResult hit = svc.Submit(BfsQuery(9)).result.get();
  EXPECT_EQ(hit.served, ServedBy::kCache);
  EXPECT_EQ(hit.attempts, 0u);
}

// Batching and caching compose: a batch's demuxed answers fill the cache,
// and repeat questions are then served without any dispatch at all.
TEST(BatchCacheTest, BatchedAnswersFillTheCache) {
  const Graph g = TestGraph();
  ServiceOptions o = BatchingService(64);
  o.cache_capacity = 16;
  GraphService svc(g, o);
  std::vector<GraphService::Ticket> tickets;
  for (VertexId s = 0; s < 8; ++s) {
    tickets.push_back(svc.Submit(BfsQuery(s)));
  }
  svc.Resume();
  svc.Drain();
  std::vector<QueryResult> batched;
  for (auto& t : tickets) {
    batched.push_back(t.result.get());
    ASSERT_TRUE(batched.back().ok());
    EXPECT_EQ(batched.back().served, ServedBy::kBatched);
  }
  for (VertexId s = 0; s < 8; ++s) {
    const QueryResult hit = svc.Submit(BfsQuery(s)).result.get();
    EXPECT_EQ(hit.served, ServedBy::kCache) << "source " << s;
    EXPECT_EQ(hit.value_bytes, batched[s].value_bytes) << "source " << s;
    EXPECT_EQ(hit.value_fingerprint, batched[s].value_fingerprint)
        << "source " << s;
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.cache_hits, 8u);
}

// Digest-only questions (want_values false, the wire default) still fill
// the cache with their bytes, from a batch and from a solo run alike: a
// later want_values hit returns the oracle's bytes, while a digest-only hit
// carries none. Inside the batch, a duplicate source asked once without and
// once with values gets its bytes either way round.
TEST(BatchCacheTest, DigestOnlyAnswersFillTheCache) {
  const Graph g = TestGraph();
  ServiceOptions o = BatchingService(64);
  o.cache_capacity = 32;
  GraphService svc(g, o);
  EngineOptions oracle_options;
  oracle_options.sim_worker_threads = 64;
  const auto oracle = [&](VertexId s) {
    return Bytes(RunBfs(g, s, MakeK40(), oracle_options).values);
  };

  struct Ask {
    VertexId source;
    bool want_values;
  };
  const std::vector<Ask> batch = {{2, false}, {5, false}, {9, false},
                                  {5, true},  {14, true}, {14, false},
                                  {21, false}};
  std::vector<GraphService::Ticket> tickets;
  for (const Ask& a : batch) {
    tickets.push_back(svc.Submit(BfsQuery(a.source, a.want_values)));
    ASSERT_EQ(tickets.back().verdict, AdmissionVerdict::kAdmitted);
  }
  svc.Resume();
  svc.Drain();
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResult r = tickets[i].result.get();
    ASSERT_TRUE(r.ok()) << "member " << i;
    EXPECT_EQ(r.served, ServedBy::kBatched) << "member " << i;
    const std::vector<uint8_t> expected = oracle(batch[i].source);
    EXPECT_EQ(r.value_fingerprint,
              ValueBytesFingerprint(expected.data(), expected.size()))
        << "member " << i;
    if (batch[i].want_values) {
      EXPECT_EQ(r.value_bytes, expected) << "member " << i;
    } else {
      EXPECT_TRUE(r.value_bytes.empty()) << "member " << i;
    }
  }
  const VertexId solo = 40;
  const QueryResult solo_miss = svc.Submit(BfsQuery(solo, false)).result.get();
  ASSERT_TRUE(solo_miss.ok());
  EXPECT_EQ(solo_miss.served, ServedBy::kSolo);
  EXPECT_TRUE(solo_miss.value_bytes.empty());

  const std::vector<VertexId> asked = {2, 5, 9, 14, 21, solo};
  for (const VertexId s : asked) {
    const std::vector<uint8_t> expected = oracle(s);
    const uint64_t digest =
        ValueBytesFingerprint(expected.data(), expected.size());
    const QueryResult with = svc.Submit(BfsQuery(s, true)).result.get();
    EXPECT_EQ(with.served, ServedBy::kCache) << "source " << s;
    EXPECT_EQ(with.value_bytes, expected) << "source " << s;
    EXPECT_EQ(with.value_fingerprint, digest) << "source " << s;
    const QueryResult without = svc.Submit(BfsQuery(s, false)).result.get();
    EXPECT_EQ(without.served, ServedBy::kCache) << "source " << s;
    EXPECT_TRUE(without.value_bytes.empty()) << "source " << s;
    EXPECT_EQ(without.value_fingerprint, digest) << "source " << s;
  }

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.batched_queries, batch.size());
  EXPECT_EQ(st.cache_misses, batch.size() + 1);
  EXPECT_EQ(st.cache_hits, 2 * asked.size());
  // The ledger identities: every submission is admitted or turned away, and
  // every admitted query reaches exactly one outcome.
  EXPECT_EQ(st.submitted, st.admitted + st.shed_queue_full + st.shed_deadline +
                              st.rejected_invalid);
  EXPECT_EQ(st.admitted, st.completed + st.faulted + st.cancelled +
                             st.deadline_exceeded + st.sink_failed);
  EXPECT_EQ(st.completed, batch.size() + 1 + 2 * asked.size());
}

// The ResultCache itself, unit-level: refresh-on-insert, LRU order, and the
// capacity-zero no-op.
TEST(BatchCacheTest, ResultCacheUnitBehavior) {
  ResultCache cache(2);
  auto key = [](VertexId s) {
    CacheKey k;
    k.kind = 0;
    k.source = s;
    return k;
  };
  auto answer = [](uint64_t vfp) {
    CachedAnswer a;
    a.value_fingerprint = vfp;
    return a;
  };
  cache.Insert(key(1), answer(11));
  cache.Insert(key(2), answer(22));
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup(key(1), false, &out));  // touches 1: LRU is now 2
  EXPECT_EQ(out.value_fingerprint, 11u);
  cache.Insert(key(3), answer(33));  // evicts 2
  EXPECT_FALSE(cache.Lookup(key(2), false, &out));
  EXPECT_TRUE(cache.Lookup(key(1), false, &out));
  EXPECT_TRUE(cache.Lookup(key(3), false, &out));
  EXPECT_EQ(cache.evictions(), 1u);
  // Re-inserting an existing key refreshes in place, no eviction.
  cache.Insert(key(1), answer(111));
  ASSERT_TRUE(cache.Lookup(key(1), false, &out));
  EXPECT_EQ(out.value_fingerprint, 111u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  ResultCache off(0);
  off.Insert(key(1), answer(11));
  EXPECT_FALSE(off.Lookup(key(1), false, &out));
  EXPECT_EQ(off.size(), 0u);
}

// A lookup copies the entry's value bytes only when asked for them: a
// digest-only lookup leaves out->value_bytes empty, even when *out held
// bytes from an earlier lookup, and the entry keeps its bytes.
TEST(BatchCacheTest, ResultCacheLookupCopiesBytesOnlyForWantValues) {
  ResultCache cache(4);
  CacheKey key;
  key.source = 7;
  CachedAnswer answer;
  answer.fingerprint = "fp";
  answer.value_fingerprint = 77;
  answer.value_bytes = {1, 2, 3, 4};
  cache.Insert(key, answer);

  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup(key, true, &out));
  EXPECT_EQ(out.value_bytes, answer.value_bytes);
  ASSERT_TRUE(cache.Lookup(key, false, &out));
  EXPECT_TRUE(out.value_bytes.empty());
  EXPECT_EQ(out.value_fingerprint, 77u);
  EXPECT_EQ(out.fingerprint, "fp");
  ASSERT_TRUE(cache.Lookup(key, true, &out));
  EXPECT_EQ(out.value_bytes, answer.value_bytes);
}

}  // namespace
}  // namespace simdx::service
