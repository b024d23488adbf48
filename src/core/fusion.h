// Push–pull based kernel fusion (Section 5, Table 2, Figure 11).
//
// Three strategies:
//  - kNoFusion: every stage (Thread/Warp/CTA compute + task management) is
//    its own kernel launch each iteration — low register pressure, but up to
//    tens of thousands of launches on high-iteration graphs.
//  - kSelective (SIMD-X): all stages of the push iterations fuse into one
//    push kernel, all pull stages into one pull kernel; the fused kernel
//    spans consecutive same-direction iterations, crossing the software
//    global barrier between them. Registers 48 (push) / 50 (pull); ~3
//    launches per run.
//  - kAllFusion: one kernel for the whole algorithm; 110 registers, which
//    halves the configurable thread count and with it occupancy.
//
// The register numbers are the paper's Table 2 measurements (nvcc
// -Xptxas -v); our composition rule reproduces the fused totals from the
// per-stage costs so ablations can perturb them.
#ifndef SIMDX_CORE_FUSION_H_
#define SIMDX_CORE_FUSION_H_

#include <cstdint>

#include "core/acc.h"
#include "core/options.h"
#include "simt/device.h"
#include "simt/occupancy.h"

namespace simdx {

enum class KernelStage : uint8_t { kThread, kWarp, kCta, kTaskMgmt };

// Per-stage register footprint before fusion (Table 2, "no fusion" columns).
uint32_t StageRegisters(Direction dir, KernelStage stage);

// Registers of the fused kernel under a policy. For kNoFusion this is the
// worst stage (the launch-time configuration must fit every kernel);
// kSelective yields 48/50, kAllFusion 110 regardless of direction.
uint32_t FusedRegisters(FusionPolicy policy, Direction dir);

// Approximate composition model (shared base + stage-unique live state) for
// ablations that perturb the per-stage costs; reproduces the measured fused
// totals within ~10%. FusedRegisters() itself returns the measured Table 2
// values.
uint32_t ComposeRegisters(const uint32_t* stage_regs, uint32_t count);

// Resources used for grid sizing and occupancy under a policy.
KernelResources ResourcesFor(FusionPolicy policy, Direction dir,
                             uint32_t threads_per_cta);

// One iteration's launch/barrier charge under a policy.
struct IterationCharge {
  uint64_t launches = 0;
  uint64_t barrier_crossings = 0;
  double occupancy = 1.0;
};

// Charges one iteration. Stateless: the one fact it needs from earlier
// iterations — whether any ran, and in which direction the last one ran —
// comes from the engine's loop state, so a resumed run charges exactly what
// the uninterrupted one did. `first_iteration` is true for the run's first
// iteration and `prev_dir` is the direction of the iteration before this one
// (ignored on the first). `stages_launched` counts the compute kernels with
// non-empty worklists this iteration (task management is always charged on
// top for kNoFusion).
IterationCharge ChargeIteration(FusionPolicy policy, uint32_t threads_per_cta,
                                const DeviceSpec& device, Direction dir,
                                bool first_iteration, Direction prev_dir,
                                uint32_t stages_launched);

}  // namespace simdx

#endif  // SIMDX_CORE_FUSION_H_
