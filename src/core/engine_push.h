// Push phase of Engine (member definitions; included from core/engine.h):
// deterministic collect-then-drain over one flat record stream per
// iteration.
//
// The sequential push loop both READS source values and WRITES destination
// values of the same curr array, so it cannot split across host threads in
// place. Instead the phase runs in two passes over the record stream — the
// SoA lanes push_dst_ (4 B), push_cand_ (sizeof(Value)) and push_worker_
// (4 B, the simulated lane that owns the online-filter bin the record's
// activation lands in), one record per frontier out-edge. A record's SLOT is
// its serial position: list order (Thread, Warp, CTA), then vertex order
// within the list, then adjacency order — the slot an exclusive scan of
// frontier out-degrees gives each edge on the GPU.
//
//   COLLECT (parallel): each chunk of each list walks its contiguous slice,
//   runs Compute against the phase-start metadata — nothing writes curr
//   during collection, so curr(v) IS the snapshot — charges the traversal
//   costs to a chunk-local CostCounters, and writes its records into its
//   own disjoint slice of the stream. A list split over several chunks
//   first sums each chunk's out-degrees over the same chunk boundaries; a
//   serial prefix over those sums gives every chunk its first slot.
//
//   DRAIN (owner-computes): the destination-vertex space is split into
//   disjoint contiguous ranges balanced by in-degree mass
//   (BalancedRangeBoundaries over the in-CSR offsets, so ranges balance by
//   incoming records). Each range worker scans the slots in order, applies
//   the records whose dst lies in its range, and runs ConsumeActivity for
//   the sources it owns where their out-degree says their records end.
//   Everything a record touches — curr(dst), the touch/record stamps, the
//   activation decision, the park decision — is keyed by a single vertex
//   that exactly one worker owns, so the per-destination statement order IS
//   the serial order. The order-sensitive side channels leave the workers
//   through per-range scratch: CostCounters merge in range order (pure
//   integer sums), while online-filter records and deferred Apply effects
//   (ApplyEffect; SSSP's bucket parks) carry their slot and are k-way merged
//   back into the serial order before touching the shared bins / program
//   state.
//
//   The serial drain is the ONE-RANGE case of the same body: at
//   host_threads == 1 or for iterations below parallel_replay_min_records,
//   a single range owns every record and the drain runs inline on the
//   calling thread. Every simulated stat, touch stamp and output value is
//   therefore bit-identical for any host_threads, and the stream costs
//   4 + sizeof(Value) + 4 bytes per record at any range count.
//
//   PRE-COMBINED (StatsContract::kPerDestination): when the program
//   declares CombineCapability::kAssociativeOnly and
//   EngineOptions::pre_combine_replay is set, the range body folds before it
//   applies and issues exactly one Apply per touched destination (see the
//   comment above FoldRecord). Stats remain bit-identical for any
//   host_threads — under the per-destination contract, which maps to the
//   per-record one as documented in bench/README.md. This drain is the ONE
//   place a push iteration folds: the collect always writes one record per
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

#include <cassert>

#include "core/engine.h"

namespace simdx {

// The inline drain polls for cancellation at its start and then once per
// this many slots.
inline constexpr uint64_t kCancelPollSlots = 65536;

// Grows a record lane to at least n entries. A lane never shrinks, and its
// old contents are dead, so growth reallocates without copying them.
template <typename Lane>
void GrowLane(Lane& lane, uint64_t n) {
  if (lane.size() < n) {
    lane.clear();
    lane.resize(n);
  }
}

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
  // The frontier's out-edge sum (already computed by classification) is
  // exactly the record count, so the lanes are sized before the collect and
  // iterations below the threshold drain as one inline range.
  const uint64_t records = frontier_out_edges;
  GrowLane(push_dst_, records);
  GrowLane(push_cand_, records);
  GrowLane(push_worker_, records);
  const bool profile = options_.profile_push_replay;
  const double t_collect = profile ? NowMs() : 0.0;
  uint64_t slot = 0;
  for (const WorkListView& view : views) {
    slot = CollectPush(program, meta, view, frontier_sorted, slot, cost);
  }
  assert(slot == records && "frontier_out_edges must equal the record count");
  if (StageBreak(FaultPoint::kReplay)) {
    return 0;
  }
  const double t_replay = profile ? NowMs() : 0.0;
  const uint32_t ranges =
      records >= options_.parallel_replay_min_records ? replay_ranges_ : 1;
  const uint64_t touched =
      Drain(program, meta, views, records, ranges, jit, cost);
  const uint64_t applies = pre_combine_ ? touched : records;
  if (StageBreak(FaultPoint::kApply)) {
    return records;
  }
  run_records_buffered_ += records;
  if (profile) {
    const double t_done = NowMs();
    profile_.collect_ms += t_replay - t_collect;
    profile_.replay_ms += t_done - t_replay;
    (ranges > 1 ? profile_.partitioned_replays : profile_.serial_replays) += 1;
    if (pre_combine_) {
      profile_.precombined_replays += 1;
      profile_.fold_records += records;
      profile_.fold_applies += applies;
    }
    profile_.iterations.push_back(PushReplayIterationSplit{
        stamp_ - 1, records, applies, t_replay - t_collect, t_done - t_replay,
        ranges > 1, pre_combine_});
  }
  return records;
}

// Collect phase for one list: writes its records from `slot` on and returns
// the slot after its last record. Grain floors shrink with kernel class — a
// CTA-class vertex carries at least medium_degree_limit edges, so far fewer
// of them make a worthwhile chunk. Chunk boundaries never affect results
// (every record lands at its serial slot regardless), so the serial path
// uses a single chunk and skips the out-degree pass.
template <AccProgram Program>
uint64_t Engine<Program>::CollectPush(const Program& program,
                                      const VertexMeta<Value>& meta,
                                      const WorkListView& view,
                                      bool frontier_sorted, uint64_t slot,
                                      CostCounters& cost) {
  if (view.empty()) {
    return slot;
  }
  size_t min_grain = 256;
  if (view.klass == KernelClass::kWarp) {
    min_grain = 32;
  } else if (view.klass == KernelClass::kCta) {
    min_grain = 4;
  }
  const ChunkPlan plan = PlanChunks(view.size, host_threads_, min_grain,
                                    /*serial_below=*/512, pool_ != nullptr);
  if (plan.chunks == 1) {
    cost += CollectPushRange(program, meta, view, frontier_sorted, 0,
                             view.size, slot);
    return slot;
  }
  if (chunk_slot_.size() < plan.chunks) {
    chunk_slot_.resize(plan.chunks);
    chunk_cost_.resize(plan.chunks);
  }
  pool_->ParallelFor(0, view.size, plan.grain, host_threads_,
                     [&](const ParallelChunk& c) {
                       uint64_t degrees = 0;
                       for (size_t idx = c.begin; idx < c.end; ++idx) {
                         degrees += graph_.OutDegree(view[idx]);
                       }
                       chunk_slot_[c.chunk_index] = degrees;
                     });
  for (uint32_t k = 0; k < plan.chunks; ++k) {
    const uint64_t degrees = chunk_slot_[k];
    chunk_slot_[k] = slot;
    slot += degrees;
  }
  pool_->ParallelFor(0, view.size, plan.grain, host_threads_,
                     [&](const ParallelChunk& c) {
                       uint64_t chunk_slot = chunk_slot_[c.chunk_index];
                       chunk_cost_[c.chunk_index] = CollectPushRange(
                           program, meta, view, frontier_sorted, c.begin,
                           c.end, chunk_slot);
                     });
  for (uint32_t k = 0; k < plan.chunks; ++k) {
    cost += chunk_cost_[k];
  }
  return slot;
}

// One chunk's collect: one record per out-edge of every vertex in
// [begin, end) of the list, written from `slot` on (advanced past the
// chunk's last record). Returns the chunk's simulated charges.
template <AccProgram Program>
CostCounters Engine<Program>::CollectPushRange(const Program& program,
                                               const VertexMeta<Value>& meta,
                                               const WorkListView& view,
                                               bool frontier_sorted,
                                               size_t begin, size_t end,
                                               uint64_t& slot) {
  const uint32_t workers = options_.sim_worker_threads;
  const bool batch = options_.filter == FilterPolicy::kBatch;
  CostCounters cost;
  for (size_t idx = begin; idx < end; ++idx) {
    const VertexId v = view[idx];
    const auto nbrs = graph_.out().Neighbors(v);
    const auto wts = graph_.out().NeighborWeights(v);
    const uint32_t degree = static_cast<uint32_t>(nbrs.size());

    // Row-offset + own-metadata reads: coalesced when the frontier is
    // sorted (ballot-filter output), scattered otherwise — the memory
    // benefit Section 4 attributes to the ballot filter.
    if (frontier_sorted) {
      cost.coalesced_words += 3;
    } else {
      cost.scattered_words += 3;
    }
    // Adjacency ids + weights. The Warp/CTA kernels read them coalesced,
    // rounded up to full 32-lane transactions; the Thread kernel's lanes
    // walk unrelated adjacency runs (partial coalescing).
    if (view.klass == KernelClass::kThread) {
      cost.coalesced_words += 2ull * degree;
      cost.scattered_words += degree / 4;
    } else {
      const uint32_t rounded = (degree + 31) / 32 * 32;
      cost.coalesced_words += 2ull * rounded;
    }
    // Per edge: one destination-metadata load and the Compute + Combine
    // lane work; under the batch filter the edge also transits the
    // expanded active-edge list (3 words written at expansion, 3 read back
    // at apply).
    cost.scattered_words += degree;
    cost.alu_ops += 2ull * degree;
    if (batch) {
      cost.coalesced_words += 6ull * degree;
    }
    for (uint32_t i = 0; i < degree; ++i, ++slot) {
      const VertexId dst = nbrs[i];
      push_dst_[slot] = dst;
      push_cand_[slot] =
          program.Compute(v, dst, wts[i], meta.curr(v), Direction::kPush);
      push_worker_[slot] = WorkerFor(idx, i, view.klass, workers);
    }
  }
  return cost;
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
                                std::span<const WorkListView> views,
                                uint64_t records, uint32_t ranges,
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
          DrainRange<true>(program, meta, views, records, p, s, jit);
        } else {
          DrainRange<false>(program, meta, views, records, p, s, jit);
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

// One range worker's drain over slots [0, records). Range p owns the
// vertices [replay_bounds_[p], replay_bounds_[p + 1]); the inline one-range
// drain owns every vertex and skips the test. A per-record run replays each
// owned record; a program with ConsumeActivity walks the lists with a slot
// cursor instead, so an owned source's consume runs right after its last
// slot — between the owned records around it, exactly where a sequential
// walk consumes. A pre-combined run folds owned records, applies once per
// owned destination, then consumes owned sources (the passes are described
// above FoldRecord). kInline is the only case that may poll for
// cancellation (pool workers must not touch control_break_), and since it
// walks the records in serial order its side channels skip the merge
// (ReplayRecord).
template <AccProgram Program>
template <bool kInline>
void Engine<Program>::DrainRange(const Program& program,
                                 VertexMeta<Value>& meta,
                                 std::span<const WorkListView> views,
                                 uint64_t records, uint32_t p,
                                 ReplayScratch& s, JitController& jit) {
  const bool profile = options_.profile_push_replay;
  const double t0 = profile ? NowMs() : 0.0;
  const VertexId lo = kInline ? 0 : static_cast<VertexId>(replay_bounds_[p]);
  const VertexId width =
      kInline ? 0 : static_cast<VertexId>(replay_bounds_[p + 1]) - lo;
  const auto owns = [&](VertexId v) { return kInline || v - lo < width; };
  uint64_t next_poll = 0;
  const auto cancelled = [&](uint64_t slot) {
    if (!kInline || !watch_cancel_ || slot < next_poll) {
      return false;
    }
    next_poll = slot + kCancelPollSlots;
    return CancelOrDeadline();
  };
  const auto replay = [&](uint64_t i) {
    ReplayRecord<kInline>(program, meta, push_dst_[i], push_worker_[i],
                          push_cand_[i], i, s, jit);
  };
  // fn(slot) for every owned slot in order; false when cancelled.
  const auto for_each_owned = [&](const auto& fn) {
    for (uint64_t begin = 0; begin < records; begin += kCancelPollSlots) {
      if (cancelled(begin)) {
        return false;
      }
      const uint64_t end = std::min(records, begin + kCancelPollSlots);
      for (uint64_t i = begin; i < end; ++i) {
        if (owns(push_dst_[i])) {
          fn(i);
        }
      }
    }
    return true;
  };
  if (!pre_combine_) {
    if constexpr (kHasConsume) {
      uint64_t slot = 0;
      for (const WorkListView& view : views) {
        for (size_t idx = 0; idx < view.size; ++idx) {
          if (cancelled(slot)) {
            return;
          }
          const VertexId v = view[idx];
          for (const uint64_t end = slot + graph_.OutDegree(v); slot < end;
               ++slot) {
            if (owns(push_dst_[slot])) {
              replay(slot);
            }
          }
          if (owns(v)) {
            Consume(program, meta, v, Direction::kPush);
          }
        }
      }
    } else {
      for_each_owned(replay);
    }
    return;
  }
  if (!for_each_owned([&](uint64_t i) {
        FoldRecord(program, push_dst_[i], push_worker_[i], push_cand_[i], i,
                   s.touched);
      })) {
    return;
  }
  if (profile) {
    s.fold_ms = NowMs() - t0;
  }
  for (const FoldTouch& t : s.touched) {
    ReplayRecord<kInline>(program, meta, t.dst, t.worker, fold_acc_[t.dst],
                          t.pos, s, jit);
  }
  if constexpr (kHasConsume) {
    for (const WorkListView& view : views) {
      for (size_t idx = 0; idx < view.size; ++idx) {
        if (owns(view[idx])) {
          Consume(program, meta, view[idx], Direction::kPush);
        }
      }
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
//   FOLD: walk the worker's records in ascending slot order,
//   left-folding each destination's candidates into fold_acc_[dst]
//   (fold_stamp_ guards staleness; the fold order for one destination is
//   exactly the serial record order restricted to it, identical however
//   the destinations are distributed over workers). First touch files a
//   FoldTouch carrying the record's slot and worker lane.
//
//   APPLY: walk the touched list in first-touch order (= ascending first-
//   record slot) and run the per-record statement sequence ONCE per
//   destination with the folded candidate — exactly one Apply, one
//   touch-stamp/atomic charge and at most one value write + activation per
//   touched destination per push iteration. Activations carry the first-
//   record slot, so the deferred merge sequences the shared filter bins
//   identically for any range count.
//
//   CONSUME: run ConsumeActivity for the worker's sources AFTER its
//   applies. Per vertex the order is always fold-apply-consume (one owner
//   runs all three), and operations on distinct vertices touch disjoint
//   state, so cross-worker interleaving is unobservable. (The per-record
//   drain instead interleaves consumes at exact serial positions — that
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
                                 uint64_t slot,
                                 std::vector<FoldTouch>& touched) {
  if (fold_stamp_[u] != stamp_) {
    fold_stamp_[u] = stamp_;
    fold_acc_[u] = cand;
    touched.push_back(FoldTouch{slot, u, worker});
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

// The per-record statement sequence for a record (u, worker, cand) at
// `slot`. A range worker defers the two shared side channels: the
// online-filter record and any Apply side effect go to the range's scratch,
// tagged with the slot for the serial-order merge. The inline one-range
// drain already runs in that order, so it emits both directly. Everything
// else a record touches is owned by this worker's range. The pre-combined
// apply pass reuses it with the folded candidate and the destination's
// first-record slot.
template <AccProgram Program>
template <bool kInline>
void Engine<Program>::ReplayRecord(const Program& program,
                                   VertexMeta<Value>& meta, VertexId u,
                                   uint32_t worker, const Value& cand,
                                   uint64_t slot, ReplayScratch& s,
                                   JitController& jit) {
  Value applied;
  if constexpr (kHasDeferredApply && !kInline) {
    const size_t before = s.effects.size();
    applied = program.ApplyCollect(u, cand, meta.curr(u), Direction::kPush,
                                   s.effects);
    for (size_t i = before; i < s.effects.size(); ++i) {
      s.effect_pos.push_back(slot);
    }
  } else {
    applied = program.Apply(u, cand, meta.curr(u), Direction::kPush);
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
      MaybeRecord(program, meta, u, worker, jit, s.cost);
    } else {
      // MaybeRecord, deferred: the stamp and the Active check only touch
      // owned per-vertex state; the bin append must wait for the merge.
      if (recorded_stamp_[u] != stamp_ &&
          program.Active(meta.curr(u), meta.prev(u))) {
        recorded_stamp_[u] = stamp_;
        s.activations.push_back(DeferredActivation{slot, worker, u});
      }
    }
  }
}

// K-way merge of per-range slot-sorted streams back into the serial record
// order: size(p)/pos(p, h) describe range p's stream, emit(p, h) consumes
// the chosen head. Each stream is slot-sorted (range workers walk the slots
// in order) and a slot belongs to exactly one range (one record, one
// owner), so strict-< selection is
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
// (a single inline range at host_threads == 1) over in-degree-balanced
// boundaries (each destination receives at most in-degree records per
// phase, so in-CSR offset mass IS expected drain work; the +i term splits
// long zero-degree runs).
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
  replay_bounds_ = BalancedRangeBoundaries(
      n, replay_ranges_,
      [&](size_t i) { return static_cast<uint64_t>(in_offsets[i]) + i; });
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
