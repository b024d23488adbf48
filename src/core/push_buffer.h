// Per-chunk update buffers for the deterministic parallel push phase.
//
// The push scatter writes arbitrary destinations, so it cannot run in place
// from multiple threads without racing on metadata and counters. Instead the
// engine splits it into two phases built on these buffers:
//
//   1. COLLECT (parallel): each ParallelFor chunk walks its contiguous slice
//      of a Thread/Warp/CTA work list, runs Compute against the phase-start
//      metadata snapshot (nothing mutates `curr` during collection), charges
//      the traversal costs to the chunk-private `cost` counters, and appends
//      one record per out-edge, grouped under a PushSourceSpan per source
//      vertex.
//   2. DRAIN (owner-computes, engine_push.h): each of P range workers walks
//      all buffers in ascending chunk index order — exactly work-list
//      order, independent of grain and thread count — applying only the
//      records whose `dst` its range owns; P = 1 is the serial drain. The
//      pre-combined drain (StatsContract::kPerDestination) is a different
//      walk over the same record sequences, so the buffers are oblivious
//      to it.
//
// To give range workers their records without scanning foreign ones, a
// multi-range collect bucketizes: BeginCollect(P > 1, ...) makes every
// Append file the record's index under its destination's range, and — when
// the program defines ConsumeActivity — every closed source span file a
// SpanEvent under the SOURCE's range, tagged with the record index the span
// ends at. ForEachInSerialOrder then merges a range's record bucket and
// span bucket by position, which reproduces the serial interleaving of
// Apply and ConsumeActivity for every vertex it owns (a source that also
// receives same-phase updates sees them land around its consume exactly as
// a sequential walk would). An unbucketed buffer is one range's: the same
// walks visit every record and span directly, building no index.
//
// Record layout: struct-of-arrays, three fixed lanes, one entry per frontier
// out-edge:
//   dst lane     4 bytes/record;
//   cand lane    sizeof(Value) bytes/record;
//   worker lane  4 bytes/record (the simulated lane that owns the
//                online-filter bin the record's activation lands in).
// Per-record byte budget = 4 + sizeof(Value) + 4, plus 4 per bucket index
// when range bucketing is armed.
//
// Buffer memory model: one buffer per chunk, owned by the engine and reused
// across iterations. BeginCollect() keeps capacity, so after the first
// iteration at a given frontier volume the steady state allocates nothing;
// a larger iteration regrows the vectors (amortized doubling) and the
// capacity then persists.
#ifndef SIMDX_CORE_PUSH_BUFFER_H_
#define SIMDX_CORE_PUSH_BUFFER_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "simt/cost_model.h"

namespace simdx {

// One deferred push update, materialized from the SoA lanes where a drain
// needs the whole tuple: the destination, the Compute candidate, and the
// simulated worker lane (it owns the online-filter bin the activation
// lands in during replay).
template <typename Value>
struct PushRecord {
  VertexId dst;
  uint32_t worker;
  Value cand;
};

// The edge records of one source vertex, in adjacency order. Replay calls
// ConsumeActivity for `src` after its `num_records` records — the position
// the sequential loop consumes at. Spans may legally hold zero records.
struct PushSourceSpan {
  VertexId src;
  uint32_t num_records;
};

// A closed source span filed under the source's destination range: the
// owner must run ConsumeActivity for `src` after applying its owned records
// with index < `end_pos` and before the one at `end_pos` (if any) — the
// serial consume position.
struct PushSpanEvent {
  uint32_t end_pos;
  VertexId src;
};

template <typename Value>
class PushBuffer {
 public:
  // Collect-side charges for this chunk (header + adjacency + per-edge
  // words); merged into the iteration counters in chunk order. Drain-side
  // charges (atomics, value-changed writes, filter records) accumulate in
  // per-range scratch merged in range order.
  CostCounters cost;
  uint64_t edges = 0;

  // Clear + configure the lanes for one chunk's collect; every vector keeps
  // its capacity across iterations, so the steady state allocates nothing.
  //   ranges       > 1 arms destination-range bucketing for that many
  //                replay ranges (0/1 = no bucketing);
  //   track_spans  additionally files one PushSpanEvent per closed source
  //                span (only wanted when bucketing is armed AND the
  //                program defines ConsumeActivity).
  void BeginCollect(uint32_t ranges, bool track_spans) {
    dsts_.clear();
    workers_.clear();
    cands_.clear();
    sources_.clear();
    cost = CostCounters{};
    edges = 0;
    ranges_ = ranges > 1 ? ranges : 0;
    track_spans_ = track_spans && ranges_ > 1;
    if (ranges_ > 1) {
      if (range_records_.size() < ranges_) {
        range_records_.resize(ranges_);
      }
      for (uint32_t r = 0; r < ranges_; ++r) {
        range_records_[r].clear();
      }
      if (track_spans_) {
        if (range_spans_.size() < ranges_) {
          range_spans_.resize(ranges_);
        }
        for (uint32_t r = 0; r < ranges_; ++r) {
          range_spans_[r].clear();
        }
      }
    }
  }

  // `src_range` is the replay range owning `src` (pass 0 when bucketing is
  // not armed). No default on purpose: with BeginCollect(ranges > 1) armed,
  // a wrong range here or in Append means a record replayed by a non-owner —
  // a silent race — so every caller must consult the owner lookup.
  void BeginSource(VertexId src, uint32_t src_range) {
    CloseOpenSpan();
    sources_.push_back(PushSourceSpan{src, 0});
    open_src_range_ = src_range;
  }

  // Appends one record; `dst_range` is the replay range owning `dst` (same
  // rule as BeginSource's `src_range`).
  void Append(VertexId dst, uint32_t worker, const Value& cand,
              uint32_t dst_range) {
    if (ranges_ > 1) {
      range_records_[dst_range].push_back(static_cast<uint32_t>(dsts_.size()));
    }
    dsts_.push_back(dst);
    cands_.push_back(cand);
    workers_.push_back(worker);
    ++sources_.back().num_records;
  }

  // Files the final span event; must be called once after the last source
  // when span tracking is armed (harmless otherwise).
  void FinishCollect() { CloseOpenSpan(); }

  bool empty() const { return sources_.empty(); }
  uint32_t size() const { return static_cast<uint32_t>(dsts_.size()); }
  VertexId dst(uint32_t i) const { return dsts_[i]; }
  const Value& cand(uint32_t i) const { return cands_[i]; }
  uint32_t worker(uint32_t i) const { return workers_[i]; }
  PushRecord<Value> record(uint32_t i) const {
    return PushRecord<Value>{dsts_[i], workers_[i], cands_[i]};
  }
  const std::vector<PushSourceSpan>& sources() const { return sources_; }

  // Bytes the record stream of this chunk occupies right now: the three
  // record lanes plus span and bucket bookkeeping. Bucket-index bytes depend
  // on whether the partitioned drain was armed (a host_threads decision), so
  // this is host telemetry — never a simulated statistic.
  size_t FootprintBytes() const {
    size_t per_record = sizeof(VertexId) + sizeof(Value) + sizeof(uint32_t);
    if (ranges_ > 1) {
      per_record += sizeof(uint32_t);  // one bucket index entry per record
    }
    size_t bytes = dsts_.size() * per_record +
                   sources_.size() * sizeof(PushSourceSpan);
    if (track_spans_) {
      for (uint32_t r = 0; r < ranges_; ++r) {
        bytes += range_spans_[r].size() * sizeof(PushSpanEvent);
      }
    }
    return bytes;
  }

  size_t capacity() const { return dsts_.capacity(); }

  // The drain's walks over range `r`'s share of this buffer. Unbucketed
  // (BeginCollect with ranges <= 1), range 0 owns everything and the walks
  // visit every record and span directly; bucketed, they visit range r's
  // buckets. Source walks need the span events, so a bucketed buffer must
  // have been collected with track_spans.

  // fn(index) for each owned record, ascending (= serial order restricted
  // to the range's destinations).
  template <typename Fn>
  void ForEachRecord(uint32_t r, Fn&& fn) const {
    if (ranges_ == 0) {
      for (uint32_t i = 0; i < size(); ++i) {
        fn(i);
      }
      return;
    }
    for (const uint32_t i : range_records_[r]) {
      fn(i);
    }
  }

  // fn(src) for each source whose consume the range owns, in span order.
  template <typename Fn>
  void ForEachSource(uint32_t r, Fn&& fn) const {
    if (ranges_ == 0) {
      for (const PushSourceSpan& span : sources_) {
        fn(span.src);
      }
      return;
    }
    assert(track_spans_ && "source walks of a bucketed buffer need spans");
    for (const PushSpanEvent& span : range_spans_[r]) {
      fn(span.src);
    }
  }

  // Both walks merged in serial order: on_source(src) runs after the owned
  // records below its span's end and before the one at it.
  template <typename OnRecord, typename OnSource>
  void ForEachInSerialOrder(uint32_t r, OnRecord&& on_record,
                            OnSource&& on_source) const {
    if (ranges_ == 0) {
      uint32_t i = 0;
      for (const PushSourceSpan& span : sources_) {
        for (const uint32_t end = i + span.num_records; i < end; ++i) {
          on_record(i);
        }
        on_source(span.src);
      }
      return;
    }
    assert(track_spans_ && "source walks of a bucketed buffer need spans");
    const std::vector<PushSpanEvent>& spans = range_spans_[r];
    size_t si = 0;
    for (const uint32_t i : range_records_[r]) {
      for (; si < spans.size() && spans[si].end_pos <= i; ++si) {
        on_source(spans[si].src);
      }
      on_record(i);
    }
    for (; si < spans.size(); ++si) {
      on_source(spans[si].src);
    }
  }

 private:
  void CloseOpenSpan() {
    if (track_spans_ && ranges_ > 1 && !sources_.empty()) {
      range_spans_[open_src_range_].push_back(
          PushSpanEvent{static_cast<uint32_t>(dsts_.size()),
                        sources_.back().src});
    }
  }

  // SoA record lanes (see the layout comment at the top of the file).
  std::vector<VertexId> dsts_;
  std::vector<uint32_t> workers_;
  std::vector<Value> cands_;
  std::vector<PushSourceSpan> sources_;
  // Owner-computes replay buckets (see file comment), armed by BeginCollect.
  std::vector<std::vector<uint32_t>> range_records_;
  std::vector<std::vector<PushSpanEvent>> range_spans_;
  uint32_t ranges_ = 0;
  uint32_t open_src_range_ = 0;
  bool track_spans_ = false;
};

}  // namespace simdx

#endif  // SIMDX_CORE_PUSH_BUFFER_H_
