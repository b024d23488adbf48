// Push phase of Engine (member definitions; included from core/engine.h):
// deterministic collect-then-drain over per-chunk update buffers
// (push_buffer.h).
//
// The sequential push loop both READS source values and WRITES destination
// values of the same curr array, so it cannot split across host threads in
// place. Instead the phase runs in two passes:
//
//   COLLECT (parallel): each chunk of each Thread/Warp/CTA list walks its
//   contiguous slice, runs Compute against the phase-start metadata —
//   nothing writes curr during collection, so curr(v) IS the snapshot —
//   charges the traversal costs to its chunk-private counters, and buffers
//   one (dst, worker, candidate) record per out-edge (bucketed under the
//   destination's replay range when the iteration drains over several).
//
//   DRAIN (owner-computes): the destination-vertex space is split into
//   disjoint ranges balanced by in-degree mass (BalancedRangeBoundaries over
//   the in-CSR offsets, so ranges balance by incoming records). Each range
//   worker walks the buffers in ascending chunk order — which is exactly
//   list order, independent of grain and thread count — drains only the
//   records whose dst it owns, and runs ConsumeActivity for the sources it
//   owns at their serial span positions. Everything a record touches —
//   curr(dst), the touch/record stamps, the activation decision, the park
//   decision — is keyed by a single vertex that exactly one worker owns, so
//   the per-destination statement order IS the serial order. The
//   order-sensitive side channels leave the workers through per-range
//   scratch: CostCounters merge in range order (pure integer sums), while
//   online-filter records and deferred Apply effects (ApplyEffect; SSSP's
//   bucket parks) carry their (chunk, record) position and are k-way merged
//   back into the global serial order before touching the shared bins /
//   program state.
//
//   The serial drain is the ONE-RANGE case of the same body: at
//   host_threads == 1, for iterations below parallel_replay_min_records, or
//   on the degradation ladder's serial rung, a single range owns every
//   record, the collect skips the bucketing, and the drain runs inline on
//   the calling thread. Every simulated stat, touch stamp and output value
//   is therefore bit-identical for any host_threads.
//
//   PRE-COMBINED (StatsContract::kPerDestination): when the program
//   declares CombineCapability::kAssociativeOnly and
//   EngineOptions::pre_combine_replay is set, the range body folds before it
//   applies and issues exactly one Apply per touched destination (see the
//   comment above FoldRecord). Stats remain bit-identical for any
//   host_threads — under the per-destination contract, which maps to the
//   per-record one as documented in bench/README.md. This drain is the ONE
//   place a push iteration folds: the collect always buffers one record per
//   out-edge.
//
// Semantics: push iterations are BSP (Jacobi-style), like pull and like
// the real double-buffered kernels — a candidate computed this phase never
// observes a value written this phase; same-phase arrivals land in curr
// and re-activate their destination for the NEXT iteration. Residual-
// carrying programs consume exactly the snapshot amount they distributed
// (see PageRankProgram::ConsumeActivity), so no activity is lost.
#ifndef SIMDX_CORE_ENGINE_PUSH_H_
#define SIMDX_CORE_ENGINE_PUSH_H_

#include "core/engine.h"

namespace simdx {

template <AccProgram Program>
uint64_t Engine<Program>::ProcessPush(const Program& program,
                                      VertexMeta<Value>& meta,
                                      std::span<const WorkListView> views,
                                      bool frontier_sorted,
                                      uint64_t frontier_out_edges,
                                      JitController& jit, CostCounters& cost) {
  if (StageBreak(FaultPoint::kCollect)) {
    return 0;
  }
  // Decide the range count up front: the frontier's out-edge sum (already
  // computed by classification) is exactly the record count the collect
  // will buffer, so iterations below the threshold skip the bucketing
  // bookkeeping (owner lookups, index appends, span events) entirely and
  // drain as one inline range.
  collect_bucketed_ =
      replay_ranges_ > 1 && !degrade_serial_drain_ &&
      frontier_out_edges >= options_.parallel_replay_min_records;
  // The whole replay scheme addresses records WITHIN one buffer by uint32
  // (Pos packs buffer<<32|index, span counters and bucket entries are
  // uint32), and a single-chunk collect puts the entire frontier in one
  // buffer. 2^32 records is ~50 GB of host buffer — far past the
  // simulator's design regime — so refuse loudly instead of wrapping
  // silently into corrupt replays.
  if (frontier_out_edges >> 32 != 0) {
    std::fprintf(stderr,
                 "simdx: push iteration with %llu out-edge records exceeds "
                 "the 2^32 per-buffer record bound\n",
                 static_cast<unsigned long long>(frontier_out_edges));
    std::abort();
  }
  const bool profile = options_.profile_push_replay;
  const double t_collect = profile ? NowMs() : 0.0;
  uint32_t num_buffers = 0;
  for (const WorkListView& view : views) {
    num_buffers +=
        CollectPush(program, meta, view, frontier_sorted, num_buffers);
  }
  if (StageBreak(FaultPoint::kReplay)) {
    return 0;
  }
  const double t_replay = profile ? NowMs() : 0.0;
  const ReplayOutcome outcome =
      ReplayPush(program, meta, num_buffers, jit, cost);
  // Host-side memory pressure: the record stream outgrew the budget —
  // step down the degradation ladder instead of aborting (the next
  // iterations collect leaner; this one already ran to completion, so
  // simulated stats are untouched).
  if (options_.host_memory_budget_bytes != 0 &&
      outcome.buffer_bytes > options_.host_memory_budget_bytes) {
    Degrade(stamp_ - 1, "budget");
  }
  if (StageBreak(FaultPoint::kApply)) {
    return outcome.edges;
  }
  run_records_buffered_ += outcome.edges;
  if (profile) {
    const double t_done = NowMs();
    profile_.collect_ms += t_replay - t_collect;
    profile_.replay_ms += t_done - t_replay;
    (collect_bucketed_ ? profile_.partitioned_replays
                       : profile_.serial_replays) += 1;
    if (pre_combine_) {
      profile_.precombined_replays += 1;
      profile_.fold_records += outcome.edges;
      profile_.fold_applies += outcome.applies;
    }
    profile_.iterations.push_back(PushReplayIterationSplit{
        stamp_ - 1, outcome.edges, outcome.applies, t_replay - t_collect,
        t_done - t_replay, collect_bucketed_, pre_combine_});
  }
  return outcome.edges;
}

// Collect phase for one list: chunk it, fill push_buffers_[base ..
// base+chunks). Grain floors shrink with kernel class — a CTA-class vertex
// carries at least medium_degree_limit edges, so far fewer of them make a
// worthwhile chunk. Chunk boundaries never affect results (the drain walks
// buffers in list order regardless), so the serial path uses a single
// chunk.
template <AccProgram Program>
uint32_t Engine<Program>::CollectPush(const Program& program,
                                      const VertexMeta<Value>& meta,
                                      const WorkListView& view,
                                      bool frontier_sorted, uint32_t base) {
  if (view.empty()) {
    return 0;
  }
  size_t min_grain = 256;
  if (view.klass == KernelClass::kWarp) {
    min_grain = 32;
  } else if (view.klass == KernelClass::kCta) {
    min_grain = 4;
  }
  const ChunkPlan plan = PlanChunks(view.size, host_threads_, min_grain,
                                    /*serial_below=*/512, pool_ != nullptr);
  if (push_buffers_.size() < base + plan.chunks) {
    push_buffers_.resize(base + plan.chunks);
  }
  // Multi-range drains bucket every record under its destination's range
  // at collect time (one extra owner lookup per edge) so each range worker
  // later walks only its own records. Chunk buffers are filled — and their
  // bucket pages first-touched — by whichever pool thread runs the chunk.
  const bool bucketed = collect_bucketed_;
  const auto run_chunk = [&](uint32_t chunk, size_t begin, size_t end) {
    PushBuffer<Value>& buf = push_buffers_[base + chunk];
    buf.BeginCollect(bucketed ? replay_ranges_ : 0,
                     /*track_spans=*/bucketed && kHasConsume);
    CollectPushRange(program, meta, view, frontier_sorted, begin, end, buf);
  };
  if (plan.chunks == 1) {
    run_chunk(0, 0, view.size);
  } else {
    pool_->ParallelFor(0, view.size, plan.grain, host_threads_,
                       [&](const ParallelChunk& c) {
                         run_chunk(c.chunk_index, c.begin, c.end);
                       });
  }
  return plan.chunks;
}

// One chunk's collect: one record per out-edge of every vertex in
// [begin, end) of the list.
template <AccProgram Program>
void Engine<Program>::CollectPushRange(const Program& program,
                                       const VertexMeta<Value>& meta,
                                       const WorkListView& view,
                                       bool frontier_sorted, size_t begin,
                                       size_t end,
                                       PushBuffer<Value>& buf) const {
  const uint32_t workers = options_.sim_worker_threads;
  const bool bucketed = collect_bucketed_;
  for (size_t idx = begin; idx < end; ++idx) {
    const VertexId v = view[idx];
    const auto nbrs = graph_.out().Neighbors(v);
    const auto wts = graph_.out().NeighborWeights(v);
    const uint32_t degree = static_cast<uint32_t>(nbrs.size());

    // Row-offset + own-metadata reads: coalesced when the frontier is
    // sorted (ballot-filter output), scattered otherwise — the memory
    // benefit Section 4 attributes to the ballot filter.
    if (frontier_sorted) {
      buf.cost.coalesced_words += 3;
    } else {
      buf.cost.scattered_words += 3;
    }
    // Adjacency ids + weights. The Warp/CTA kernels read them coalesced,
    // rounded up to full 32-lane transactions; the Thread kernel's lanes
    // walk unrelated adjacency runs (partial coalescing).
    if (view.klass == KernelClass::kThread) {
      buf.cost.coalesced_words += 2ull * degree;
      buf.cost.scattered_words += degree / 4;
    } else {
      const uint32_t rounded = (degree + 31) / 32 * 32;
      buf.cost.coalesced_words += 2ull * rounded;
    }

    buf.BeginSource(v, bucketed ? range_of_vertex_[v] : 0);
    for (uint32_t i = 0; i < degree; ++i) {
      buf.cost.scattered_words += 1;  // load destination metadata
      buf.cost.alu_ops += 2;          // Compute + Combine lane work
      // Batch filter: this edge also transited the expanded active-edge
      // list (3 words written at expansion, 3 read back at apply).
      if (options_.filter == FilterPolicy::kBatch) {
        buf.cost.coalesced_words += 6;
      }
      const VertexId dst = nbrs[i];
      const Value cand =
          program.Compute(v, dst, wts[i], meta.curr(v), Direction::kPush);
      buf.Append(dst, WorkerFor(idx, i, view.klass, workers), cand,
                 bucketed ? range_of_vertex_[dst] : 0);
    }
    buf.edges += degree;
  }
  buf.FinishCollect();
}

// Merges the collect-side counters in chunk order, then drains — over
// replay_ranges_ workers when the collect bucketed, else as one inline
// range. Per-record runs issue one Apply per record
// (StatsContract::kPerRecord), pre-combined runs one per touched
// destination (kPerDestination).
template <AccProgram Program>
auto Engine<Program>::ReplayPush(const Program& program,
                                 VertexMeta<Value>& meta, uint32_t num_buffers,
                                 JitController& jit, CostCounters& cost)
    -> ReplayOutcome {
  ReplayOutcome out;
  for (uint32_t b = 0; b < num_buffers; ++b) {
    cost += push_buffers_[b].cost;
    out.edges += push_buffers_[b].edges;
    out.buffer_bytes += push_buffers_[b].FootprintBytes();
  }
  const uint64_t touched =
      Drain(program, meta, num_buffers, collect_bucketed_ ? replay_ranges_ : 1,
            jit, cost);
  out.applies = pre_combine_ ? touched : out.edges;
  return out;
}

// The one push drain: range worker p drains the records whose destination
// it owns (DrainRange), then the per-range side channels merge back into
// exact serial record order — filter records into the shared bins
// (overflow latching and charge order match a sequential walk), then Apply
// effects into the program (SSSP's pending-list order matches). One range
// runs inline on the calling thread. Returns the destinations the
// pre-combined fold touched (0 for per-record runs).
template <AccProgram Program>
uint64_t Engine<Program>::Drain(const Program& program, VertexMeta<Value>& meta,
                                uint32_t num_buffers, uint32_t ranges,
                                JitController& jit, CostCounters& cost) {
  const bool profile = options_.profile_push_replay;
  uint64_t touched = 0;
  PartitionedDrain(
      pool_, host_threads_, ranges,
      [&](uint32_t p) {
        ReplayScratch& s = replay_scratch_[p];
        ResetScratch(s);
        const double t0 = profile ? NowMs() : 0.0;
        if (ranges == 1) {
          DrainRange<true>(program, meta, num_buffers, p, s, jit);
        } else {
          DrainRange<false>(program, meta, num_buffers, p, s, jit);
        }
        if (profile) {
          s.wall_ms = NowMs() - t0;
        }
      },
      [&](uint32_t p) {
        const ReplayScratch& s = replay_scratch_[p];
        cost += s.cost;
        touched += s.touched.size();
        if (profile) {
          profile_.range_ms[p] += s.wall_ms;
          profile_.fold_ms += s.fold_ms;
          profile_.apply_ms += s.apply_ms;
        }
      });
  MergeByPosition(
      ranges,
      [&](uint32_t p) { return replay_scratch_[p].activations.size(); },
      [&](uint32_t p, size_t h) { return replay_scratch_[p].activations[h].pos; },
      [&](uint32_t p, size_t h) {
        jit.ReplayActivation(replay_scratch_[p].activations[h], cost);
      });
  if constexpr (kHasDeferredApply) {
    MergeByPosition(
        ranges,
        [&](uint32_t p) { return replay_scratch_[p].effect_pos.size(); },
        [&](uint32_t p, size_t h) { return replay_scratch_[p].effect_pos[h]; },
        [&](uint32_t p, size_t h) {
          program.ReplayApplyEffect(replay_scratch_[p].effects[h]);
        });
  }
  return touched;
}

// One range worker's drain over every buffer in ascending chunk order. A
// per-record run replays each owned record, with owned sources'
// ConsumeActivity interleaved at their serial span positions (a span's
// consume runs after owned records below its end and before the one at
// it — see PushSpanEvent). A pre-combined run folds owned records, applies
// once per owned destination, then consumes owned sources (the passes are
// described above FoldRecord). kInline is the one-range drain on the
// calling thread: it is the only case that may poll for cancellation
// (pool workers must not touch control_break_), and since it walks the
// records in serial order its side channels skip the merge (ReplayRecord).
template <AccProgram Program>
template <bool kInline>
void Engine<Program>::DrainRange(const Program& program,
                                 VertexMeta<Value>& meta, uint32_t num_buffers,
                                 uint32_t p, ReplayScratch& s,
                                 JitController& jit) {
  const bool profile = options_.profile_push_replay;
  const double t0 = profile ? NowMs() : 0.0;
  for (uint32_t b = 0; b < num_buffers; ++b) {
    if (kInline && watch_cancel_ && (b & 31u) == 0 && CancelOrDeadline()) {
      return;
    }
    const PushBuffer<Value>& buf = push_buffers_[b];
    const auto replay = [&](uint32_t i) {
      ReplayRecord<kInline>(program, meta, buf.record(i), Pos(b, i), s, jit);
    };
    if (pre_combine_) {
      buf.ForEachRecord(p, [&](uint32_t i) {
        FoldRecord(program, buf.dst(i), buf.worker(i), buf.cand(i), Pos(b, i),
                   s.touched);
      });
    } else if constexpr (kHasConsume) {
      buf.ForEachInSerialOrder(p, replay, [&](VertexId src) {
        Consume(program, meta, src, Direction::kPush);
      });
    } else {
      buf.ForEachRecord(p, replay);
    }
  }
  if (!pre_combine_) {
    return;
  }
  if (profile) {
    s.fold_ms = NowMs() - t0;
  }
  for (const FoldTouch& t : s.touched) {
    ReplayRecord<kInline>(program, meta,
                          PushRecord<Value>{t.dst, t.worker, fold_acc_[t.dst]},
                          t.pos, s, jit);
  }
  if constexpr (kHasConsume) {
    for (uint32_t b = 0; b < num_buffers; ++b) {
      push_buffers_[b].ForEachSource(p, [&](VertexId src) {
        Consume(program, meta, src, Direction::kPush);
      });
    }
  }
  if (profile) {
    s.apply_ms = NowMs() - t0 - s.fold_ms;
  }
}

// --- pre-combined drain (StatsContract::kPerDestination) ---
//
// For kAssociativeOnly programs the drain may fold a destination's records
// with Combine before Apply sees them. Each range worker runs three passes,
// so the result is bit-identical for any range count, i.e. any
// host_threads:
//
//   FOLD: walk the worker's records in ascending (chunk, record) order,
//   left-folding each destination's candidates into fold_acc_[dst]
//   (fold_stamp_ guards staleness; the fold order for one destination is
//   exactly the serial record order restricted to it, identical however
//   the destinations are distributed over workers). First touch files a
//   FoldTouch carrying the record's global position and worker lane.
//
//   APPLY: walk the touched list in first-touch order (= ascending first-
//   record position) and run the per-record statement sequence ONCE per
//   destination with the folded candidate — exactly one Apply, one
//   touch-stamp/atomic charge and at most one value write + activation per
//   touched destination per push iteration. Activations carry the first-
//   record position, so the deferred merge sequences the shared filter bins
//   identically for any range count.
//
//   CONSUME: run ConsumeActivity for the worker's sources AFTER its
//   applies. Per vertex the order is always fold-apply-consume (one owner
//   runs all three), and operations on distinct vertices touch disjoint
//   state, so cross-worker interleaving is unobservable. (The per-record
//   drain instead interleaves consumes at exact span positions — that
//   distinction is part of the contract split: per-destination semantics
//   hand EVERY same-phase arrival to the consume, which for residual
//   programs conserves activity just like the serial interleaving, only
//   with different FP rounding.)
//
// The pull path needs none of this: a pull gather already combines all
// contributors before its single Apply, i.e. pull iterations are
// pre-combined by construction under either contract.
template <AccProgram Program>
void Engine<Program>::FoldRecord(const Program& program, VertexId u,
                                 uint32_t worker, const Value& cand,
                                 uint64_t pos,
                                 std::vector<FoldTouch>& touched) {
  if (fold_stamp_[u] != stamp_) {
    fold_stamp_[u] = stamp_;
    fold_acc_[u] = cand;
    touched.push_back(FoldTouch{pos, u, worker});
  } else {
    fold_acc_[u] = program.Combine(fold_acc_[u], cand);
  }
}

template <AccProgram Program>
void Engine<Program>::ResetScratch(ReplayScratch& s) {
  s.cost = CostCounters{};
  s.activations.clear();
  s.effects.clear();
  s.effect_pos.clear();
  s.touched.clear();
  s.fold_ms = 0.0;
  s.apply_ms = 0.0;
}

// The per-record statement sequence. A range worker defers the two shared
// side channels: the online-filter record and any Apply side effect go to
// the range's scratch, tagged with the record's global position `pos` for
// the serial-order merge. The inline one-range drain already runs in that
// order, so it emits both directly. Everything else a record touches is
// owned by this worker's range. The pre-combined passes reuse it with a
// synthesized record carrying the folded candidate and the destination's
// first-record position.
template <AccProgram Program>
template <bool kInline>
void Engine<Program>::ReplayRecord(const Program& program,
                                   VertexMeta<Value>& meta,
                                   const PushRecord<Value>& rec, uint64_t pos,
                                   ReplayScratch& s, JitController& jit) {
  const VertexId u = rec.dst;
  Value applied;
  if constexpr (kHasDeferredApply && !kInline) {
    const size_t before = s.effects.size();
    applied = program.ApplyCollect(u, rec.cand, meta.curr(u),
                                   Direction::kPush, s.effects);
    for (size_t i = before; i < s.effects.size(); ++i) {
      s.effect_pos.push_back(pos);
    }
  } else {
    applied = program.Apply(u, rec.cand, meta.curr(u), Direction::kPush);
  }
  if (options_.use_atomic_updates) {
    // AFC-style: every candidate lands as a device atomic; concurrent
    // candidates for the same destination serialize (Figure 5's
    // aggregation overhead).
    s.cost.atomic_ops += 1;
    if (touch_stamp_[u] == stamp_) {
      s.cost.atomic_conflicts += 1;
    }
    touch_stamp_[u] = stamp_;
  }
  if (program.ValueChanged(meta.curr(u), applied)) {
    meta.curr(u) = applied;
    if (!options_.use_atomic_updates) {
      s.cost.scattered_words += 1;  // single writer, no atomic (ACC)
    }
    if constexpr (kInline) {
      MaybeRecord(program, meta, u, rec.worker, jit, s.cost);
    } else {
      // MaybeRecord, deferred: the stamp and the Active check only touch
      // owned per-vertex state; the bin append must wait for the merge.
      if (recorded_stamp_[u] != stamp_ &&
          program.Active(meta.curr(u), meta.prev(u))) {
        recorded_stamp_[u] = stamp_;
        s.activations.push_back(DeferredActivation{pos, rec.worker, u});
      }
    }
  }
}

// K-way merge of per-range position-sorted streams back into the global
// serial record order: size(p)/pos(p, h) describe range p's stream,
// emit(p, h) consumes the chosen head. Each stream is position-sorted
// (range workers walk the buffers in order) and a position belongs to
// exactly one range (one record, one owner), so strict-< selection is
// unambiguous and within-range order is preserved. The linear head scan
// is O(streams) per element; with streams capped at host_threads it beats
// a heap's constant factor — revisit if range counts grow past ~32.
template <AccProgram Program>
template <typename SizeFn, typename PosFn, typename EmitFn>
void Engine<Program>::MergeByPosition(uint32_t ranges, const SizeFn& size,
                                      const PosFn& pos, const EmitFn& emit) {
  merge_heads_.assign(ranges, 0);
  while (true) {
    uint32_t best = ranges;
    uint64_t best_pos = ~0ull;
    for (uint32_t p = 0; p < ranges; ++p) {
      const size_t h = merge_heads_[p];
      if (h < size(p) && pos(p, h) < best_pos) {
        best_pos = pos(p, h);
        best = p;
      }
    }
    if (best == ranges) {
      break;
    }
    emit(best, merge_heads_[best]++);
  }
}

// Arms the owner-computes drain for this run: one range per host thread
// (a single inline range at host_threads == 1), in-degree-balanced
// boundaries (each destination receives at most in-degree records per
// phase, so in-CSR offset mass IS expected drain work; the +i term splits
// long zero-degree runs), and the vertex→range owner lookup the collect
// pass buckets with — filled range by range, so each slice is
// first-touched by a pool thread.
template <AccProgram Program>
void Engine<Program>::SetupReplayPartition() {
  const auto n = static_cast<size_t>(graph_.vertex_count());
  replay_ranges_ =
      pool_ == nullptr || n == 0
          ? 1u
          : static_cast<uint32_t>(std::min<size_t>(host_threads_, n));
  if (replay_scratch_.size() < replay_ranges_) {
    replay_scratch_.resize(replay_ranges_);
  }
  if (options_.profile_push_replay) {
    profile_ = PushReplayProfile{};
    profile_.ranges = replay_ranges_;
    profile_.range_ms.assign(replay_ranges_, 0.0);
  }
  if (replay_ranges_ == 1) {
    return;
  }
  const auto& in_offsets = graph_.in().row_offsets();
  const std::vector<size_t> boundaries = BalancedRangeBoundaries(
      n, replay_ranges_,
      [&](size_t i) { return static_cast<uint64_t>(in_offsets[i]) + i; });
  if (range_of_vertex_.size() < n) {
    range_of_vertex_.resize(n);
  }
  PartitionedDrain(
      pool_, host_threads_, replay_ranges_,
      [&](uint32_t p) {
        for (size_t v = boundaries[p]; v < boundaries[p + 1]; ++v) {
          range_of_vertex_[v] = p;
        }
      },
      [](uint32_t) {});
}

// Simulated hardware thread that discovered an activation: a Thread-class
// vertex is owned by one lane; Warp/CTA-class vertices spread their edges
// over 32 / 256 lanes, which spreads bin pressure — the reason a single
// hub rarely overflows a bin but a large frontier volume does.
template <AccProgram Program>
uint32_t Engine<Program>::WorkerFor(size_t list_idx, uint32_t edge_idx,
                                    KernelClass klass, uint32_t workers) {
  uint32_t worker = 0;
  switch (klass) {
    case KernelClass::kThread:
      worker = static_cast<uint32_t>(list_idx);
      break;
    case KernelClass::kWarp: {
      const uint32_t warp_slots = std::max(1u, workers / 32);
      worker =
          (static_cast<uint32_t>(list_idx) % warp_slots) * 32 + edge_idx % 32;
      break;
    }
    case KernelClass::kCta: {
      const uint32_t cta_slots = std::max(1u, workers / 256);
      worker =
          (static_cast<uint32_t>(list_idx) % cta_slots) * 256 + edge_idx % 256;
      break;
    }
  }
  return worker % workers;
}

}  // namespace simdx

#endif  // SIMDX_CORE_ENGINE_PUSH_H_
