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
//   serial prefix over those sums gives every chunk its first slot. An
//   iteration below kParallelCollectMinRecords records — the one collect
//   cut-off — collects every list as one chunk on the Run thread, with no
//   out-degree pass and no pool dispatch.
//
//   DRAIN (serial, on the Run thread): one pass replays the slots in
//   order, so every Apply, curr write, touch/record stamp, online-filter
//   record and program side effect (SSSP's bucket parks) happens exactly
//   where the sequential loop puts it — there are no side channels and
//   nothing to merge, and Apply may touch program state. This is the pull
//   phase's shape too (engine_pull.h): parallel read-only work, then one
//   ordered apply. Every simulated stat, touch stamp and output value is
//   therefore bit-identical for any host_threads, and the stream costs
//   4 + sizeof(Value) + 4 bytes per record.
//
//   PRE-COMBINED (StatsContract::kPerDestination): when the program
//   declares CombineCapability::kAssociativeOnly and
//   EngineOptions::pre_combine_replay is set, the drain folds before it
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

// The drain polls for cancellation at its start and then once per this
// many slots.
inline constexpr uint64_t kCancelPollSlots = 65536;

// A push iteration with fewer records collects every list as one chunk on
// the Run thread: no out-degree pass and no pool dispatch. Measured with
// push_replay --threads 1,4 --repeats 3 on R-MAT scales 12-15 (three seeds
// each, this cut-off at 0, one 4-vCPU box), the 4-thread collect of an
// iteration took 1.8-2.6x the 1-thread time below 16,384 records and
// 1.05-1.46x above it, losing in every band. Those processes did not check
// where the pool's threads ran, so the runs give a floor for the cut-off,
// not a crossover.
inline constexpr uint64_t kParallelCollectMinRecords = 16384;

// Grows a record lane to at least n entries, at least doubling it, so a
// widening wavefront reallocates a logarithmic number of times rather than
// at almost every iteration. A lane never shrinks, and its old contents are
// dead, so growth reallocates without copying them; for a trivial element
// type the default-initialising NumaVector writes nothing into the unused
// tail.
template <typename Lane>
void GrowLane(Lane& lane, uint64_t n) {
  if (lane.size() < n) {
    const uint64_t grown = std::max<uint64_t>(n, 2 * lane.size());
    lane.clear();
    lane.resize(grown);
  }
}

template <AccProgram Program>
uint64_t Engine<Program>::ProcessPush(const Program& program,
                                      VertexMeta<Value>& meta,
                                      std::span<const WorkListView> views,
                                      bool frontier_sorted,
                                      uint64_t frontier_out_edges,
                                      CostCounters& cost) {
  if (StageBreak(FaultPoint::kCollect)) {
    return 0;
  }
  // The frontier's out-edge sum (already computed by classification) is
  // exactly the record count, so the lanes are sized before the collect.
  const uint64_t records = frontier_out_edges;
  GrowLane(push_dst_, records);
  GrowLane(push_cand_, records);
  GrowLane(push_worker_, records);
  const bool profile = options_.profile_push_replay;
  const double t_collect = profile ? NowMs() : 0.0;
  const bool parallel =
      pool_ != nullptr && records >= kParallelCollectMinRecords;
  uint64_t slot = 0;
  for (const WorkListView& view : views) {
    slot = CollectPush(program, meta, view, frontier_sorted, parallel, slot,
                       cost);
  }
  assert(slot == records && "frontier_out_edges must equal the record count");
  if (StageBreak(FaultPoint::kReplay)) {
    return 0;
  }
  const double t_replay = profile ? NowMs() : 0.0;
  const uint64_t touched = Drain(program, meta, views, records, cost);
  const uint64_t applies = pre_combine_ ? touched : records;
  if (StageBreak(FaultPoint::kApply)) {
    return records;
  }
  run_records_buffered_ += records;
  if (profile) {
    const double t_done = NowMs();
    profile_.collect_ms += t_replay - t_collect;
    profile_.replay_ms += t_done - t_replay;
    profile_.serial_replays += 1;
    if (pre_combine_) {
      profile_.precombined_replays += 1;
      profile_.fold_records += records;
      profile_.fold_applies += applies;
    }
    profile_.iterations.push_back(PushReplayIterationSplit{
        stamp_ - 1, records, applies, t_replay - t_collect, t_done - t_replay,
        pre_combine_});
  }
  return records;
}

// Collect phase for one list: writes its records from `slot` on and returns
// the slot after its last record. Grain floors shrink with kernel class — a
// CTA-class vertex carries at least medium_degree_limit edges, so far fewer
// of them make a worthwhile chunk. Chunk boundaries never affect results
// (every record lands at its serial slot regardless), so a collect that is
// not `parallel` uses a single chunk and skips the out-degree pass.
template <AccProgram Program>
uint64_t Engine<Program>::CollectPush(const Program& program,
                                      const VertexMeta<Value>& meta,
                                      const WorkListView& view,
                                      bool frontier_sorted, bool parallel,
                                      uint64_t slot, CostCounters& cost) {
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
                                    /*serial_below=*/0, parallel);
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

// The one push drain, on the Run thread, over slots [0, records) in order.
// A per-record run replays each record; a program with ConsumeActivity
// walks the lists with a slot cursor instead, so a source's consume runs
// right after its last slot — exactly where a sequential walk consumes. A
// pre-combined run folds, applies once per touched destination, then
// consumes (the passes are described above FoldRecord). Returns the
// destinations the pre-combined fold touched (0 for per-record runs).
template <AccProgram Program>
uint64_t Engine<Program>::Drain(const Program& program, VertexMeta<Value>& meta,
                                std::span<const WorkListView> views,
                                uint64_t records, CostCounters& cost) {
  uint64_t next_poll = 0;
  const auto cancelled = [&](uint64_t slot) {
    if (!watch_cancel_ || slot < next_poll) {
      return false;
    }
    next_poll = slot + kCancelPollSlots;
    return CancelOrDeadline();
  };
  // fn(slot) for every slot in order; false when cancelled.
  const auto for_each_slot = [&](const auto& fn) {
    for (uint64_t begin = 0; begin < records; begin += kCancelPollSlots) {
      if (cancelled(begin)) {
        return false;
      }
      const uint64_t end = std::min(records, begin + kCancelPollSlots);
      for (uint64_t i = begin; i < end; ++i) {
        fn(i);
      }
    }
    return true;
  };
  const auto replay = [&](uint64_t i) {
    ReplayRecord(program, meta, push_dst_[i], push_worker_[i], push_cand_[i],
                 cost);
  };
  if (!pre_combine_) {
    if constexpr (kHasConsume) {
      uint64_t slot = 0;
      for (const WorkListView& view : views) {
        for (size_t idx = 0; idx < view.size; ++idx) {
          if (cancelled(slot)) {
            return 0;
          }
          const VertexId v = view[idx];
          for (const uint64_t end = slot + graph_.OutDegree(v); slot < end;
               ++slot) {
            replay(slot);
          }
          Consume(program, meta, v, Direction::kPush);
        }
      }
    } else {
      for_each_slot(replay);
    }
    return 0;
  }
  const bool profile = options_.profile_push_replay;
  const double t_fold = profile ? NowMs() : 0.0;
  fold_touched_.clear();
  if (!for_each_slot([&](uint64_t i) {
        FoldRecord(program, push_dst_[i], push_worker_[i], push_cand_[i]);
      })) {
    return fold_touched_.size();
  }
  const double t_apply = profile ? NowMs() : 0.0;
  for (const FoldTouch& t : fold_touched_) {
    ReplayRecord(program, meta, t.dst, t.worker, fold_acc_[t.dst], cost);
  }
  if constexpr (kHasConsume) {
    for (const WorkListView& view : views) {
      for (size_t idx = 0; idx < view.size; ++idx) {
        Consume(program, meta, view[idx], Direction::kPush);
      }
    }
  }
  if (profile) {
    profile_.fold_ms += t_apply - t_fold;
    profile_.apply_ms += NowMs() - t_apply;
  }
  return fold_touched_.size();
}

// --- pre-combined drain (StatsContract::kPerDestination) ---
//
// For kAssociativeOnly programs the drain may fold a destination's records
// with Combine before Apply sees them. It runs three passes:
//
//   FOLD: walk the records in ascending slot order, left-folding each
//   destination's candidates into fold_acc_[dst] (fold_stamp_ guards
//   staleness). First touch files a FoldTouch carrying the record's
//   worker lane.
//
//   APPLY: walk the touched list in first-touch order (= ascending first-
//   record slot) and run the per-record statement sequence ONCE per
//   destination with the folded candidate — exactly one Apply, one
//   touch-stamp/atomic charge and at most one value write + activation per
//   touched destination per push iteration.
//
//   CONSUME: run ConsumeActivity for every source AFTER all applies. (The
//   per-record drain instead interleaves consumes at exact serial
//   positions — that distinction is part of the contract split:
//   per-destination semantics hand EVERY same-phase arrival to the
//   consume, which for residual programs conserves activity just like the
//   serial interleaving, only with different FP rounding.)
//
// The pull path needs none of this: a pull gather already combines all
// contributors before its single Apply, i.e. pull iterations are
// pre-combined by construction under either contract.
template <AccProgram Program>
void Engine<Program>::FoldRecord(const Program& program, VertexId u,
                                 uint32_t worker, const Value& cand) {
  if (fold_stamp_[u] != stamp_) {
    fold_stamp_[u] = stamp_;
    fold_acc_[u] = cand;
    fold_touched_.push_back(FoldTouch{u, worker});
  } else {
    fold_acc_[u] = program.Combine(fold_acc_[u], cand);
  }
}

// The per-record statement sequence for a record (u, worker, cand): Apply,
// the atomic charge, the curr write and the online-filter record, charged
// to the iteration's counters. The pre-combined apply pass reuses it with
// the folded candidate and the worker lane of the destination's first
// record.
template <AccProgram Program>
void Engine<Program>::ReplayRecord(const Program& program,
                                   VertexMeta<Value>& meta, VertexId u,
                                   uint32_t worker, const Value& cand,
                                   CostCounters& cost) {
  const Value applied = program.Apply(u, cand, meta.curr(u), Direction::kPush);
  if (options_.use_atomic_updates) {
    // AFC-style: every candidate lands as a device atomic; concurrent
    // candidates for the same destination serialize (Figure 5's
    // aggregation overhead).
    cost.atomic_ops += 1;
    if (touch_stamp_[u] == stamp_) {
      cost.atomic_conflicts += 1;
    }
    touch_stamp_[u] = stamp_;
  }
  if (program.ValueChanged(meta.curr(u), applied)) {
    meta.curr(u) = applied;
    if (!options_.use_atomic_updates) {
      cost.scattered_words += 1;  // single writer, no atomic (ACC)
    }
    MaybeRecord(program, meta, u, worker, cost);
  }
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
