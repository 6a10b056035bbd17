// Roofline-with-overlap cost model: WorkProfile × machine × frequency →
// time, cycles, cache traffic, and package power.
//
// Mechanics (all per phase):
//
//   Tc(f)  = issue cycles · Amdahl(p) / f            (compute component)
//   Tm(u)  = DRAM bytes / BW(u) + latency misses     (memory component)
//   T      = max(Tc, Tm) + (1 − overlap) · min(Tc, Tm)
//
// DRAM bytes come from the cache model: streamed bytes always go to
// memory; reused bytes hit the LLC according to how much of the phase's
// working set fits; irregular accesses mostly miss.
//
// Power = base + leakage(V) + core dynamic(util, mix, f·V²)
//       + uncore(bandwidth utilization, u·V(u)²).
//
// The mechanisms that reproduce the paper:
//  * memory-bound phases have low core utilization → low draw → caps
//    don't bite until deep; their time is set by Tm, which only degrades
//    through the uncore/bandwidth coupling (contour's 1.17X at 40 W);
//  * compute-bound phases have util ≈ 1 and high FP mix → high draw →
//    the governor must cut f early and T scales with f (volume
//    rendering, particle advection);
//  * working sets that outgrow the LLC convert reused bytes into DRAM
//    traffic, dropping IPC as datasets grow (volume rendering, Fig. 5).
#pragma once

#include "arch/machine.h"
#include "viz/worklet/work_profile.h"

namespace pviz::arch {

/// Resolved execution characteristics of one phase at a fixed frequency.
struct PhaseCost {
  double seconds = 0.0;
  double computeSeconds = 0.0;   ///< Tc
  double memorySeconds = 0.0;    ///< Tm
  double instructions = 0.0;
  double llcReferences = 0.0;
  double llcMisses = 0.0;
  double dramBytes = 0.0;
  double coreUtilization = 0.0;  ///< fraction of time cores are issuing
  double bandwidthUtilization = 0.0;
  double fpShare = 0.0;          ///< FP fraction of the instruction mix
  double powerWatts = 0.0;       ///< package draw while this phase runs
};

/// Aggregate over a kernel's phases at a fixed frequency.
struct KernelCost {
  double seconds = 0.0;
  double instructions = 0.0;
  double llcReferences = 0.0;
  double llcMisses = 0.0;
  double energyJoules = 0.0;
  std::vector<PhaseCost> phases;

  double averagePowerWatts() const {
    return seconds > 0.0 ? energyJoules / seconds : 0.0;
  }
  double llcMissRate() const {
    return llcReferences > 0.0 ? llcMisses / llcReferences : 0.0;
  }
};

class CostModel {
 public:
  explicit CostModel(MachineDescription machine)
      : machine_(machine) {}

  const MachineDescription& machine() const { return machine_; }

  /// Evaluate one phase at core frequency `fGhz` (uncore follows).
  PhaseCost phaseCost(const vis::WorkProfile& phase, double fGhz) const;

  /// Evaluate a whole kernel at a fixed core frequency.
  KernelCost kernelCost(const vis::KernelProfile& kernel, double fGhz) const;

  /// Measured-IPC (REF_TSC semantics): instructions retired divided by
  /// reference cycles across all cores for a run of `seconds`.
  double referenceIpc(double instructions, double seconds) const {
    const double refCycles =
        seconds * machine_.baseGhz * 1e9 * machine_.cores;
    return refCycles > 0.0 ? instructions / refCycles : 0.0;
  }

 private:
  MachineDescription machine_;
};

}  // namespace pviz::arch
