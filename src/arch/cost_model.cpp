#include "arch/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace pviz::arch {

namespace {
constexpr double kCacheLine = 64.0;

/// Average parallelism of a phase under Amdahl's law.
double amdahlSpeedup(double parallelFraction, int cores) {
  const double serial = 1.0 - parallelFraction;
  return 1.0 / (serial + parallelFraction / static_cast<double>(cores));
}
}  // namespace

PhaseCost CostModel::phaseCost(const vis::WorkProfile& phase,
                               double fGhz) const {
  PVIZ_REQUIRE(fGhz > 0.0, "frequency must be positive");
  const MachineDescription& m = machine_;
  const double uGhz = m.uncoreGhz(fGhz);

  PhaseCost cost;
  cost.instructions = phase.instructions();
  cost.fpShare =
      cost.instructions > 0.0 ? phase.flops / cost.instructions : 0.0;

  // --- Cache model -------------------------------------------------------
  const double streamedLines = phase.bytesStreamed / kCacheLine;
  const double reusedLines = phase.bytesReused / kCacheLine;
  double reuseHitFraction = 1.0;
  if (phase.workingSetBytes > m.llcBytes) {
    reuseHitFraction = m.llcBytes / phase.workingSetBytes;
  }
  // Irregular (gather) accesses miss the private caches; whether they
  // hit the LLC or go to DRAM depends on how much of the working set
  // fits — the same fit fraction as the reuse traffic.
  const double irregularDramFraction =
      (1.0 - reuseHitFraction) * 0.6 + 0.08;
  const double irregularMisses =
      phase.irregularAccesses * irregularDramFraction;
  // References: streaming lines always reach the LLC; the private L2
  // captures most of the reuse traffic, so only a fraction of it shows
  // up as LLC references.
  cost.llcReferences = streamedLines +
                       reusedLines * m.llcReferenceFraction +
                       phase.irregularAccesses;
  cost.llcMisses = streamedLines +
                   reusedLines * m.llcReferenceFraction *
                       (1.0 - reuseHitFraction) +
                   irregularMisses;
  // Timing sees the full spilled reuse traffic, not just the fraction
  // the reference counter happens to observe.
  cost.dramBytes = (streamedLines + reusedLines * (1.0 - reuseHitFraction) +
                    irregularMisses) *
                   kCacheLine;

  // --- Memory time --------------------------------------------------------
  const double parallelism = amdahlSpeedup(phase.parallelFraction, m.cores);
  const double bwCeiling =
      std::min(m.bandwidthAt(uGhz), parallelism * m.perCoreBandwidth);
  const double bandwidthSeconds = cost.dramBytes / bwCeiling;
  // Latency-bound component: LLC-hitting irregular accesses pay the
  // ring/LLC latency, overlapped by the per-core MLP and spread over
  // the participating cores.  Irregular accesses that spill to DRAM are
  // bandwidth-accounted instead (their lines are already in dramBytes —
  // prefetchers and deep MLP turn bulk gather misses into a bandwidth
  // problem, not a serialized-latency one).  The ring slows as the
  // uncore is throttled.
  const double uncoreStretch = 0.7 + 0.3 * (m.turboAllCoreGhz / uGhz);
  const double latencySeconds = phase.irregularAccesses * reuseHitFraction *
                                m.llcLatencySeconds * uncoreStretch /
                                (m.memLevelParallelism * parallelism);
  cost.memorySeconds = bandwidthSeconds + latencySeconds;

  // --- Compute time -------------------------------------------------------
  const double issueCycles = phase.flops / m.fpPerCycle +
                             phase.intOps / m.intPerCycle +
                             phase.memOps / m.memOpsPerCycle;
  cost.computeSeconds = issueCycles / (fGhz * 1e9) / parallelism;

  // --- Roofline with overlap ----------------------------------------------
  const double hi = std::max(cost.computeSeconds, cost.memorySeconds);
  const double lo = std::min(cost.computeSeconds, cost.memorySeconds);
  cost.seconds = hi + (1.0 - phase.overlap) * lo;
  if (cost.seconds <= 0.0) {
    cost.seconds = 1e-12;
  }

  cost.coreUtilization = std::min(1.0, cost.computeSeconds / cost.seconds);
  cost.bandwidthUtilization =
      std::min(1.0, (cost.dramBytes / cost.seconds) / m.memBandwidth);

  // --- Package power ------------------------------------------------------
  const double v = m.voltage(fGhz);
  const double uv = m.voltage(uGhz);
  const double mix = 0.35 + 1.0 * cost.fpShare;  // FP-heavy code draws more
  // Stalled cores still burn a floor of their active power.
  const double activity =
      mix * (m.stallPowerFloor +
             (1.0 - m.stallPowerFloor) * cost.coreUtilization);
  const double coreDynamic = m.cores * m.dynPerCoreMaxWatts * activity *
                             m.dynamicScale(fGhz);
  const double leakage = m.cores * m.leakPerCoreWatts * v;
  const double uncoreScale =
      (uGhz * uv * uv) / (m.turboAllCoreGhz * 1.0);
  // Convex in utilization: a saturated memory system (row activates,
  // all channels busy) costs disproportionately more than light traffic.
  const double trafficFactor =
      std::pow(cost.bandwidthUtilization, 1.4);
  const double uncore =
      (m.uncoreIdleWatts +
       (m.uncoreMaxWatts - m.uncoreIdleWatts) * trafficFactor) *
      uncoreScale;
  cost.powerWatts = m.basePowerWatts + leakage + coreDynamic + uncore;
  return cost;
}

KernelCost CostModel::kernelCost(const vis::KernelProfile& kernel,
                                 double fGhz) const {
  KernelCost total;
  total.phases.reserve(kernel.phases.size());
  for (const auto& phase : kernel.phases) {
    PhaseCost cost = phaseCost(phase, fGhz);
    total.seconds += cost.seconds;
    total.instructions += cost.instructions;
    total.llcReferences += cost.llcReferences;
    total.llcMisses += cost.llcMisses;
    total.energyJoules += cost.powerWatts * cost.seconds;
    total.phases.push_back(cost);
  }
  return total;
}

}  // namespace pviz::arch
