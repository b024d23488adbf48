#include "core/fusion.h"

#include <algorithm>

namespace simdx {
namespace {

// Table 2, "no fusion" rows.
constexpr uint32_t kPushStageRegs[4] = {26, 27, 28, 24};  // thread/warp/CTA/mgmt
constexpr uint32_t kPullStageRegs[4] = {24, 24, 22, 30};

// Table 2, fused rows — nvcc measurements carried over from the paper.
// Register allocation across fused stages is not additive (live ranges
// overlap and the compiler spills differently), so these are data, not a
// formula; ComposeRegisters below is the *approximate* model used when an
// ablation perturbs the per-stage costs.
constexpr uint32_t kSelectivePushRegs = 48;
constexpr uint32_t kSelectivePullRegs = 50;
constexpr uint32_t kAllFusionRegs = 110;

// Approximation for perturbed stage costs: a shared base (graph pointers,
// loop and barrier state) plus roughly half of each stage's registers
// remaining uniquely live. Reproduces Table 2 within ~10%:
// push 18+0.29*105 = 48, all-fusion 18+0.45*205 = 110.
constexpr uint32_t kSharedBaseRegs = 18;

}  // namespace

uint32_t StageRegisters(Direction dir, KernelStage stage) {
  const uint32_t* table =
      dir == Direction::kPush ? kPushStageRegs : kPullStageRegs;
  return table[static_cast<uint32_t>(stage)];
}

uint32_t ComposeRegisters(const uint32_t* stage_regs, uint32_t count) {
  // The unique-live fraction grows with the number of fused stages (more
  // simultaneous live ranges leave the allocator less room to share).
  const double unique_fraction = count <= 4 ? 0.29 : 0.45;
  double unique = 0.0;
  for (uint32_t i = 0; i < count; ++i) {
    unique += stage_regs[i] * unique_fraction;
  }
  return kSharedBaseRegs + static_cast<uint32_t>(unique + 0.5);
}

uint32_t FusedRegisters(FusionPolicy policy, Direction dir) {
  switch (policy) {
    case FusionPolicy::kNoFusion: {
      const uint32_t* t = dir == Direction::kPush ? kPushStageRegs : kPullStageRegs;
      return *std::max_element(t, t + 4);
    }
    case FusionPolicy::kSelective:
      return dir == Direction::kPush ? kSelectivePushRegs : kSelectivePullRegs;
    case FusionPolicy::kAllFusion:
      return kAllFusionRegs;
  }
  return 0;
}

KernelResources ResourcesFor(FusionPolicy policy, Direction dir,
                             uint32_t threads_per_cta) {
  KernelResources r;
  r.registers_per_thread = FusedRegisters(policy, dir);
  r.threads_per_cta = threads_per_cta;
  return r;
}

IterationCharge ChargeIteration(FusionPolicy policy, uint32_t threads_per_cta,
                                const DeviceSpec& device, Direction dir,
                                bool first_iteration, Direction prev_dir,
                                uint32_t stages_launched) {
  IterationCharge charge;
  const KernelResources res = ResourcesFor(policy, dir, threads_per_cta);
  charge.occupancy = OccupancyFraction(device, res);

  switch (policy) {
    case FusionPolicy::kNoFusion:
      // Each non-empty compute stage plus the task-management kernel is a
      // separate launch; iteration boundaries are kernel boundaries, so no
      // software barrier is crossed.
      charge.launches = stages_launched + 1;
      break;
    case FusionPolicy::kSelective: {
      // One launch at the start of every push (or pull) PHASE; inside the
      // phase, iterations cross the software barrier twice (after compute,
      // after task management — Figure 4(b)).
      const bool phase_start = first_iteration || dir != prev_dir;
      charge.launches = phase_start ? 1 : 0;
      charge.barrier_crossings = 2;
      break;
    }
    case FusionPolicy::kAllFusion:
      charge.launches = first_iteration ? 1 : 0;
      charge.barrier_crossings = 2;
      break;
  }
  return charge;
}

}  // namespace simdx
