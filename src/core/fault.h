// Deterministic fault injection for the engine's survivability tests.
//
// Named fault points are compiled into the engine's collect/replay/apply/
// frontier/checkpoint stages. Arming is explicit (RunControl::faults or the
// SIMDX_FAULTS env var); the disarmed hot path is a single branch on a null
// registry pointer, which bench/fault_sweep gates at < 1% overhead on
// push_replay stage timings.
//
// Every fault is one-shot: it fires at most once per registry lifetime,
// modelling "the crash happened once". RobustRun shares one registry across
// its attempts, so a resumed run sails past the iteration that killed its
// predecessor — exactly how a real re-execution after a crash behaves.
#ifndef SIMDX_CORE_FAULT_H_
#define SIMDX_CORE_FAULT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace simdx {

class Checkpoint;

enum class FaultPoint : uint8_t {
  kIterationStart = 0,  // top of the iteration loop, after checkpointing
  kCollect,             // entry of the push collect stage
  kReplay,              // before the push replay drain
  kApply,               // after the replay drain, before stat accumulation
  kFrontier,            // before the filter/frontier-build stage
  kCheckpointWrite,     // the checkpoint writer itself fails
};

const char* ToString(FaultPoint p);
// Parses a fault-point name ("collect", "checkpoint-write", ...),
// case-insensitively ("Collect", "CHECKPOINT-WRITE" are the same points).
// Returns false on an unknown name.
bool FaultPointFromName(const std::string& name, FaultPoint* out);

struct ArmedFault {
  FaultPoint point = FaultPoint::kIterationStart;
  uint32_t iteration = 0;
  // >= 0: instead of failing, silently corrupt this section index of the
  // checkpoint written at `iteration` (a simulated torn write). Indices
  // count sections in write order (checkpoint.h): 0 loop, 1 values,
  // 2 frontier, 3 stats, 4 program state when the program has one. Only
  // meaningful with point == kCheckpointWrite.
  int32_t corrupt_section = -1;
  uint64_t seed = 0;  // picks the corrupted byte; keyed so replayable
  bool fired = false;
};

// One-shot fault registry. Arm/Parse happen at setup time from one thread;
// ShouldFail/TakeCorruption/Reset are mutex-guarded so a registry may be
// consulted by several concurrently running engines (the resident service
// shares the SIMDX_FAULTS env registry across in-flight queries — the first
// query through the armed point takes the fault, everyone else sails on).
class FaultRegistry {
 public:
  FaultRegistry() = default;
  // Copying snapshots the armed faults (including fired flags); the mutex is
  // per-instance, never shared.
  FaultRegistry(const FaultRegistry& other) : faults_(other.Snapshot()) {}
  FaultRegistry& operator=(const FaultRegistry& other) {
    if (this != &other) {
      std::vector<ArmedFault> copy = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      faults_ = std::move(copy);
    }
    return *this;
  }

  void Arm(const ArmedFault& fault) {
    std::lock_guard<std::mutex> lock(mu_);
    faults_.push_back(fault);
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_.empty();
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (ArmedFault& f : faults_) {
      f.fired = false;
    }
  }

  // True when an un-fired fault matches (point, iteration); marks it fired.
  // Corruption-armed checkpoint faults are skipped here — they don't fail
  // the write, they poison its bytes (see TakeCorruption).
  bool ShouldFail(FaultPoint point, uint32_t iteration);

  // Returns the un-fired corruption fault armed for the checkpoint written
  // at `iteration` (marking it fired), or nullptr. The pointee is stable:
  // arming is done before engines run, so the vector never reallocates
  // underneath a consult.
  const ArmedFault* TakeCorruption(uint32_t iteration);

  // Parses a spec string: comma-separated "point@iter[:corrupt=N][:seed=S]",
  // e.g. "replay@3,checkpoint-write@5:corrupt=2:seed=7". Point names are
  // case-insensitive. Appends to `out`; false on malformed input (out may
  // hold a partial parse), with a human-readable reason in *error when
  // provided. Two terms arming the SAME (point, iteration) pair are rejected
  // as a spec error: a duplicated term is almost always a typo'd iteration,
  // and silently arming both turns the intended one-shot crash into two.
  static bool Parse(const std::string& spec, FaultRegistry* out,
                    std::string* error = nullptr);

  // Registry armed from the SIMDX_FAULTS env var; nullptr when unset or
  // unparseable. Parsed once per process.
  static FaultRegistry* FromEnv();

 private:
  std::vector<ArmedFault> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_;
  }

  mutable std::mutex mu_;
  std::vector<ArmedFault> faults_;
};

// Flips one seed-chosen byte in the chosen section's payload WITHOUT
// re-sealing, leaving the section CRC stale — the simulated torn write that
// Checkpoint::Validate later detects. Out-of-range section indices corrupt
// the last section.
void CorruptCheckpointSection(Checkpoint* checkpoint, uint32_t section_index,
                              uint64_t seed);

}  // namespace simdx

#endif  // SIMDX_CORE_FAULT_H_
