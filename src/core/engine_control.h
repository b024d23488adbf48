// Control plane of Engine (member definitions; included from core/engine.h):
// cancellation, deadlines, fault hooks and checkpointing (control.h /
// checkpoint.h / fault.h).
#ifndef SIMDX_CORE_ENGINE_CONTROL_H_
#define SIMDX_CORE_ENGINE_CONTROL_H_

#include <cstring>

#include "core/engine.h"

namespace simdx {

template <AccProgram Program>
void Engine<Program>::DisarmControl() {
  control_ = nullptr;
  cancel_ = nullptr;
  faults_ = nullptr;
  watch_cancel_ = false;
}

// Latches the first cancellation/deadline observation into control_break_.
// Only called from the Run thread (iteration boundaries and the push
// drain) — never from pool workers, so no races.
template <AccProgram Program>
bool Engine<Program>::CancelOrDeadline() {
  if (control_break_) {
    return true;
  }
  if (cancel_ != nullptr && cancel_->cancelled()) {
    control_break_ = true;
    break_outcome_ = RunOutcome::kCancelled;
    return true;
  }
  if (deadline_ms_ > 0.0 && NowMs() > deadline_ms_) {
    control_break_ = true;
    break_outcome_ = RunOutcome::kDeadlineExceeded;
    return true;
  }
  return false;
}

// Stage-boundary hook compiled into collect/replay/apply/frontier: breaks
// on a pending control_break_, an armed stage fault, or cancellation.
// Fully disarmed this is two predictable branches — the hooks-overhead
// gate bench/fault_sweep measures.
template <AccProgram Program>
bool Engine<Program>::StageBreak(FaultPoint point) {
  if (control_break_) {
    return true;
  }
  if (faults_ != nullptr && faults_->ShouldFail(point, stamp_ - 1)) {
    control_break_ = true;
    break_outcome_ = RunOutcome::kFaulted;
    return true;
  }
  return watch_cancel_ && CancelOrDeadline();
}

// Runs at the top of every iteration, before any stage: cancellation,
// checkpoint cadence, iteration-start faults.
// Returns true when the loop must break (break_outcome_ says why).
template <AccProgram Program>
bool Engine<Program>::IterationControl(const Program& program,
                                       const VertexMeta<Value>& meta,
                                       const std::vector<VertexId>& frontier,
                                       const JitController& jit,
                                       const FusionAccountant& fusion,
                                       RunStats& stats, const LoopState& loop) {
  const uint32_t iter = loop.iter;
  if (!watch_cancel_ && faults_ == nullptr &&
      control_->checkpoint_every == 0) {
    return false;  // fully disarmed: the zero-cost path
  }
  if (CancelOrDeadline()) {
    return true;
  }
  if (control_->checkpoint_every != 0 && control_->on_checkpoint &&
      iter % control_->checkpoint_every == 0) {
    if (!WriteCheckpoint(program, meta, frontier, jit, fusion, stats, loop)) {
      // WriteCheckpoint set break_outcome_: kFaulted for an injected write
      // fault, kCheckpointSinkFailed when the caller's sink refused the
      // bytes.
      control_break_ = true;
      return true;
    }
  }
  if (faults_ != nullptr &&
      faults_->ShouldFail(FaultPoint::kIterationStart, iter)) {
    control_break_ = true;
    break_outcome_ = RunOutcome::kFaulted;
    return true;
  }
  return false;
}

// Builds, seals and hands out a checkpoint of the iteration-boundary
// state. Returns false — with break_outcome_ set — when an armed
// checkpoint-write fault fails the write (→ kFaulted) or the caller-owned
// sink reports a persistence failure (→ kCheckpointSinkFailed); a
// corruption-armed fault instead poisons the bytes silently — the
// simulated torn write Validate() later catches.
template <AccProgram Program>
bool Engine<Program>::WriteCheckpoint(const Program& program,
                                      const VertexMeta<Value>& meta,
                                      const std::vector<VertexId>& frontier,
                                      const JitController& jit,
                                      const FusionAccountant& fusion,
                                      RunStats& stats, const LoopState& loop) {
  const uint32_t iter = loop.iter;
  static_assert(std::is_trivially_copyable_v<Value>,
                "checkpointing snapshots raw value bytes");
  Checkpoint cp;
  cp.header.options_digest = SemanticOptionsDigest(options_);
  cp.header.graph_vertices = graph_.vertex_count();
  cp.header.graph_edges = graph_.edge_count();
  cp.header.value_size = sizeof(Value);
  cp.header.iteration = iter;
  cp.header.contract = static_cast<uint8_t>(stats.contract);
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kEngineLoop));
    w.Pod(static_cast<uint8_t>(loop.prev_dir));
    w.Pod(static_cast<uint8_t>(loop.frontier_sorted));
    w.Pod(loop.pending_filter);
    w.Pod(static_cast<uint8_t>(loop.charge_init_scan));
    w.Pod(loop.refill_words);
    w.Pod(run_records_buffered_);
    w.Pod(static_cast<uint8_t>(jit.failed()));
    w.Pod(jit.ballot_iterations());
    w.Pod(jit.online_iterations());
    w.Str(jit.pattern());
    w.Pod(static_cast<uint8_t>(fusion.launched_any()));
    w.Pod(static_cast<uint8_t>(fusion.last_direction()));
    w.Pod(fusion.total_launches());
    w.Pod(fusion.total_barriers());
  }
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kValuesCurr));
    w.Pod(static_cast<uint64_t>(meta.size()));
    w.Bytes(meta.values().data(), meta.size() * sizeof(Value));
  }
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kValuesPrev));
    w.Pod(static_cast<uint64_t>(meta.size()));
    w.Bytes(meta.prev_values().data(), meta.size() * sizeof(Value));
  }
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kFrontier));
    w.Pod(static_cast<uint64_t>(frontier.size()));
    w.Bytes(frontier.data(), frontier.size() * sizeof(VertexId));
  }
  {
    ByteWriter w(&cp.AddSection(CheckpointSectionId::kStats));
    SerializeRunStats(stats, w);
  }
  if constexpr (kHasProgramState) {
    program.SaveSchedulerState(
        cp.AddSection(CheckpointSectionId::kProgramState));
  }
  cp.Seal();
  if (faults_ != nullptr) {
    if (faults_->ShouldFail(FaultPoint::kCheckpointWrite, iter)) {
      break_outcome_ = RunOutcome::kFaulted;
      return false;
    }
    if (const ArmedFault* corrupt = faults_->TakeCorruption(iter)) {
      CorruptCheckpointSection(
          &cp, static_cast<uint32_t>(corrupt->corrupt_section),
          corrupt->seed);
    }
  }
  if (!control_->on_checkpoint(cp)) {
    // The sink could not persist the snapshot. The failed write is not
    // counted: checkpoints_written is the number of snapshots the caller
    // actually holds.
    break_outcome_ = RunOutcome::kCheckpointSinkFailed;
    return false;
  }
  stats.checkpoints_written += 1;
  return true;
}

// Restores a checkpoint into the freshly armed run state. Treats the
// snapshot as untrusted: CRC validation, header cross-checks and
// bounds-checked parses; any mismatch returns false (→ kFaulted), never
// UB — the CI ASan+UBSan job drives malformed bytes through this path.
template <AccProgram Program>
bool Engine<Program>::RestoreCheckpoint(const Checkpoint& cp,
                                        const Program& program,
                                        VertexMeta<Value>& meta,
                                        std::vector<VertexId>& frontier,
                                        JitController& jit,
                                        FusionAccountant& fusion,
                                        RunStats& stats, LoopState* state) {
  if (!cp.Validate(nullptr)) {
    return false;
  }
  const auto n = static_cast<uint64_t>(graph_.vertex_count());
  if (cp.header.options_digest != SemanticOptionsDigest(options_) ||
      cp.header.graph_vertices != n ||
      cp.header.graph_edges != graph_.edge_count() ||
      cp.header.value_size != sizeof(Value) ||
      cp.header.contract != static_cast<uint8_t>(stats.contract)) {
    return false;
  }
  const CheckpointSection* loop = cp.Find(CheckpointSectionId::kEngineLoop);
  const CheckpointSection* curr = cp.Find(CheckpointSectionId::kValuesCurr);
  const CheckpointSection* prev = cp.Find(CheckpointSectionId::kValuesPrev);
  const CheckpointSection* front = cp.Find(CheckpointSectionId::kFrontier);
  const CheckpointSection* stat = cp.Find(CheckpointSectionId::kStats);
  if (loop == nullptr || curr == nullptr || prev == nullptr ||
      front == nullptr || stat == nullptr) {
    return false;
  }
  {
    ByteReader r(loop->bytes);
    uint8_t dir8 = 0, sorted8 = 0, init8 = 0;
    r.Pod(&dir8);
    r.Pod(&sorted8);
    r.Pod(&state->pending_filter);
    r.Pod(&init8);
    r.Pod(&state->refill_words);
    r.Pod(&run_records_buffered_);
    uint8_t jit_failed = 0;
    uint32_t ballot = 0, online = 0;
    std::string pattern;
    r.Pod(&jit_failed);
    r.Pod(&ballot);
    r.Pod(&online);
    r.Str(&pattern);
    uint8_t launched8 = 0, last_dir8 = 0;
    uint64_t launches = 0, barriers = 0;
    r.Pod(&launched8);
    r.Pod(&last_dir8);
    r.Pod(&launches);
    if (!r.Pod(&barriers) || !r.AtEnd() || dir8 > 1 || last_dir8 > 1) {
      return false;
    }
    state->prev_dir = static_cast<Direction>(dir8);
    state->frontier_sorted = sorted8 != 0;
    state->charge_init_scan = init8 != 0;
    jit.RestoreHistory(std::move(pattern), ballot, online, jit_failed != 0);
    fusion.RestoreHistory(launched8 != 0, static_cast<Direction>(last_dir8),
                          launches, barriers);
  }
  {
    ByteReader rc(curr->bytes);
    uint64_t curr_count = 0;
    if (!rc.Pod(&curr_count) || curr_count != n) {
      return false;
    }
    const size_t value_bytes = static_cast<size_t>(n) * sizeof(Value);
    const uint8_t* curr_bytes = rc.Raw(value_bytes);
    ByteReader rp(prev->bytes);
    uint64_t prev_count = 0;
    if (curr_bytes == nullptr || !rp.Pod(&prev_count) || prev_count != n) {
      return false;
    }
    const uint8_t* prev_bytes = rp.Raw(value_bytes);
    // The engine checkpoints only at iteration boundaries, where prev ==
    // curr (metadata.h); a snapshot that says otherwise would silently skew
    // the sparse commit (CommitPrev), so it is refused.
    if (prev_bytes == nullptr ||
        std::memcmp(prev_bytes, curr_bytes, value_bytes) != 0) {
      return false;
    }
    meta.RestoreSnapshot(curr_bytes);
  }
  {
    ByteReader r(front->bytes);
    if (!r.Vec(&frontier) || !r.AtEnd()) {
      return false;
    }
    for (const VertexId v : frontier) {
      if (static_cast<uint64_t>(v) >= n) {
        return false;
      }
    }
  }
  {
    ByteReader r(stat->bytes);
    if (!DeserializeRunStats(r, &stats) || !r.AtEnd()) {
      return false;
    }
  }
  if constexpr (kHasProgramState) {
    const CheckpointSection* ps = cp.Find(CheckpointSectionId::kProgramState);
    if (ps == nullptr || !program.RestoreSchedulerState(
                             ps->bytes.data(), ps->bytes.size(), n)) {
      return false;
    }
  }
  state->iter = cp.header.iteration;
  return true;
}

}  // namespace simdx

#endif  // SIMDX_CORE_ENGINE_CONTROL_H_
