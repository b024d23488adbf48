// Event-counting cost model.
//
// Engines record WHAT the GPU would do (coalesced transactions, scattered
// words, atomics with their contention, ALU work, kernel launches, barrier
// crossings); the model converts the counts into simulated cycles and
// milliseconds for a given device and kernel occupancy. Absolute numbers are
// synthetic; ratios between engine strategies are the reproduction target.
#ifndef SIMDX_SIMT_COST_MODEL_H_
#define SIMDX_SIMT_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "simt/device.h"
#include "simt/occupancy.h"

namespace simdx {

// Which accounting contract the counters below were recorded under. The
// engine's push-replay drain exists in two observably different flavors, and
// a fingerprint of one is NOT comparable to a fingerprint of the other:
//
//   kPerRecord      — every push record charges its own Apply, value write,
//                     atomic op and contention stamp. The original contract:
//                     every counter and every value byte-identical across
//                     host_threads AND to the PR 2/PR 3 serial drain.
//   kPerDestination — associative programs pre-combine a destination's
//                     records (core/acc.h CombineCapability) and charge ONE
//                     Apply/write/atomic per touched destination per push
//                     iteration. Counters and values are still byte-identical
//                     across host_threads, but differ from kPerRecord by a
//                     documented mapping (bench/README.md): scattered value
//                     writes and atomic_ops shrink from records to touched
//                     destinations, and atomic_conflicts collapse to zero —
//                     pre-aggregation removes same-destination collisions,
//                     which is exactly the paper's Figure 5 argument.
//
// Carried in RunStats next to the counters and folded into the bench
// fingerprints so the determinism gates can never compare across contracts.
enum class StatsContract : uint8_t { kPerRecord, kPerDestination };

inline const char* ToString(StatsContract c) {
  return c == StatsContract::kPerRecord ? "per-record" : "per-destination";
}

struct CostCounters {
  // 32-bit words moved through coalesced accesses (sequential scans of CSR
  // runs, metadata arrays, worklists). 32 words = one transaction.
  uint64_t coalesced_words = 0;
  // 32-bit words moved through scattered accesses (random metadata reads or
  // writes at arbitrary vertex ids). One word = one transaction.
  uint64_t scattered_words = 0;
  // Device-memory atomic operations.
  uint64_t atomic_ops = 0;
  // Extra serialization from atomics landing on the same address: the sum of
  // (conflict-chain length - 1) over all atomics.
  uint64_t atomic_conflicts = 0;
  // Plain ALU work items (one per edge relaxation, comparison, ...).
  uint64_t alu_ops = 0;
  uint64_t kernel_launches = 0;
  uint64_t barrier_crossings = 0;

  // Counters are pure sums, so per-chunk deltas accumulated by parallel
  // phases merge with += in ascending chunk order (core/parallel.h) and the
  // result is independent of which thread produced which delta.
  CostCounters& operator+=(const CostCounters& o);
  friend CostCounters operator+(CostCounters a, const CostCounters& b) {
    a += b;
    return a;
  }
  // Whole-struct equality, used by the host_threads determinism gates.
  friend bool operator==(const CostCounters&, const CostCounters&) = default;
};

struct SimTime {
  double cycles = 0.0;
  double ms = 0.0;
};

// Converts counters to time. `occupancy` in (0, 1] scales the device's
// latency-hiding ability: the parallel portion of the cost divides by
// (sm_count * occupancy). Launch and barrier overheads are serial.
SimTime EstimateTime(const CostCounters& c, const DeviceSpec& device,
                     double occupancy);

// Convenience: occupancy derived from the kernel's register footprint.
SimTime EstimateTime(const CostCounters& c, const DeviceSpec& device,
                     const KernelResources& kernel);

std::string ToString(const CostCounters& c);

}  // namespace simdx

#endif  // SIMDX_SIMT_COST_MODEL_H_
