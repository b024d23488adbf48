#include "simt/cost_model.h"

#include <algorithm>
#include <sstream>

namespace simdx {

CostCounters& CostCounters::operator+=(const CostCounters& o) {
  coalesced_words += o.coalesced_words;
  scattered_words += o.scattered_words;
  atomic_ops += o.atomic_ops;
  atomic_conflicts += o.atomic_conflicts;
  alu_ops += o.alu_ops;
  kernel_launches += o.kernel_launches;
  barrier_crossings += o.barrier_crossings;
  return *this;
}

// Memory-system events stop scaling with additional SMs once roughly this
// many units are in flight: DRAM bandwidth is a shared resource, and ~16
// Kepler-class SMs saturate it. ALU work keeps scaling with every SM.
constexpr double kMemSaturationUnits = 16.0;

SimTime EstimateTime(const CostCounters& c, const DeviceSpec& device,
                     double occupancy) {
  occupancy = std::clamp(occupancy, 0.05, 1.0);
  const double parallel_units = device.sm_count * occupancy;
  const double mem_units = std::min(parallel_units, kMemSaturationUnits);

  const double coalesced_txns =
      static_cast<double>(c.coalesced_words) / device.warp_size;
  double mem_cycles = coalesced_txns * device.coalesced_txn_cycles +
                      static_cast<double>(c.scattered_words) *
                          device.scattered_word_cycles;
  mem_cycles /= device.mem_bandwidth_scale;

  const double atomic_cycles =
      (static_cast<double>(c.atomic_ops) +
       static_cast<double>(c.atomic_conflicts) * 2.0) *
      device.atomic_base_cycles / device.mem_bandwidth_scale;

  const double alu_cycles = static_cast<double>(c.alu_ops) * device.alu_op_cycles;

  const double parallel_cycles =
      (mem_cycles + atomic_cycles) / mem_units + alu_cycles / parallel_units;
  const double serial_cycles =
      static_cast<double>(c.kernel_launches) * device.kernel_launch_cycles +
      static_cast<double>(c.barrier_crossings) * device.barrier_cycles;

  SimTime t;
  t.cycles = parallel_cycles + serial_cycles;
  t.ms = t.cycles / (device.clock_ghz * 1e6);
  return t;
}

SimTime EstimateTime(const CostCounters& c, const DeviceSpec& device,
                     const KernelResources& kernel) {
  return EstimateTime(c, device, OccupancyFraction(device, kernel));
}

std::string ToString(const CostCounters& c) {
  std::ostringstream os;
  os << "coalesced=" << c.coalesced_words << " scattered=" << c.scattered_words
     << " atomics=" << c.atomic_ops << " conflicts=" << c.atomic_conflicts
     << " alu=" << c.alu_ops << " launches=" << c.kernel_launches
     << " barriers=" << c.barrier_crossings;
  return os.str();
}

}  // namespace simdx
