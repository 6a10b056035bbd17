// Architecture cost model tests.
#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "util/error.h"

namespace pviz::arch {
namespace {

CostModel model() {
  return CostModel(MachineDescription::broadwellE52695v4());
}

vis::WorkProfile computeKernel() {
  vis::WorkProfile p;
  p.name = "compute";
  p.flops = 5e9;
  p.intOps = 2e9;
  p.memOps = 1e9;
  p.bytesReused = 1e8;
  p.workingSetBytes = 1e6;  // cache resident
  p.parallelFraction = 0.99;
  p.overlap = 0.8;
  return p;
}

vis::WorkProfile memoryKernel() {
  vis::WorkProfile p;
  p.name = "memory";
  p.flops = 1e8;
  p.intOps = 3e8;
  p.memOps = 3e8;
  p.bytesStreamed = 4e9;
  p.parallelFraction = 0.99;
  p.overlap = 0.9;
  return p;
}

TEST(CostModel, ComputeTimeScalesInverselyWithFrequency) {
  const CostModel m = model();
  const auto fast = m.phaseCost(computeKernel(), 2.6);
  const auto slow = m.phaseCost(computeKernel(), 1.3);
  EXPECT_NEAR(slow.computeSeconds / fast.computeSeconds, 2.0, 1e-9);
  // The phase is compute bound, so total time follows closely.
  EXPECT_NEAR(slow.seconds / fast.seconds, 2.0, 0.1);
}

TEST(CostModel, MemoryBoundTimeIsFrequencyInsensitiveAtHighF) {
  const CostModel m = model();
  const auto fast = m.phaseCost(memoryKernel(), 2.6);
  const auto slow = m.phaseCost(memoryKernel(), 2.2);
  // Bandwidth-bound: a modest frequency drop moves total time far less
  // than proportionally (2.6/2.2 would be 1.18X if compute bound).
  EXPECT_LT(slow.seconds / fast.seconds, 1.15);
  EXPECT_GT(fast.memorySeconds, fast.computeSeconds);
}

TEST(CostModel, DeepUncoreThrottlingDoesSlowMemoryKernels) {
  const CostModel m = model();
  const auto fast = m.phaseCost(memoryKernel(), 2.6);
  const auto deep = m.phaseCost(memoryKernel(), 1.0);
  // The uncore (and with it sustained bandwidth) follows the core down.
  EXPECT_GT(deep.seconds / fast.seconds, 1.2);
}

TEST(CostModel, TimeRespectsRooflineBounds) {
  const CostModel m = model();
  for (const auto& kernel : {computeKernel(), memoryKernel()}) {
    for (double f : {1.0, 1.8, 2.6}) {
      const auto cost = m.phaseCost(kernel, f);
      const double hi = std::max(cost.computeSeconds, cost.memorySeconds);
      const double lo = std::min(cost.computeSeconds, cost.memorySeconds);
      ASSERT_GE(cost.seconds, hi - 1e-15);
      ASSERT_LE(cost.seconds, hi + lo + 1e-15);
    }
  }
}

TEST(CostModel, OverlapInterpolatesBetweenMaxAndSum) {
  const CostModel m = model();
  vis::WorkProfile p = memoryKernel();
  p.overlap = 1.0;
  const auto full = m.phaseCost(p, 2.6);
  p.overlap = 0.0;
  const auto none = m.phaseCost(p, 2.6);
  EXPECT_NEAR(full.seconds,
              std::max(full.computeSeconds, full.memorySeconds), 1e-15);
  EXPECT_NEAR(none.seconds, none.computeSeconds + none.memorySeconds,
              1e-15);
  EXPECT_GT(none.seconds, full.seconds);
}

TEST(CostModel, WorkingSetSpillCreatesDramTraffic) {
  const CostModel m = model();
  vis::WorkProfile p;
  p.flops = 1e9;
  p.memOps = 1e9;
  p.bytesReused = 8e9;
  p.workingSetBytes = 1e6;  // fits
  const auto resident = m.phaseCost(p, 2.6);
  p.workingSetBytes = 4.0 * m.machine().llcBytes;  // 4x the LLC
  const auto spilled = m.phaseCost(p, 2.6);
  EXPECT_GT(spilled.dramBytes, resident.dramBytes + 1e9);
  EXPECT_GT(spilled.llcMisses, resident.llcMisses);
  EXPECT_GT(spilled.seconds, resident.seconds);
  EXPECT_LT(spilled.seconds / resident.seconds, 1e3);  // sane magnitude
}

TEST(CostModel, LlcRatesAreWellFormed) {
  const CostModel m = model();
  for (const auto& kernel : {computeKernel(), memoryKernel()}) {
    const auto cost = m.phaseCost(kernel, 2.6);
    ASSERT_GE(cost.llcReferences, cost.llcMisses);
    ASSERT_GE(cost.llcMisses, 0.0);
  }
}

TEST(CostModel, AmdahlPenalizesSerialPhases) {
  const CostModel m = model();
  vis::WorkProfile p = computeKernel();
  p.parallelFraction = 1.0;
  const auto parallel = m.phaseCost(p, 2.6);
  p.parallelFraction = 0.0;
  const auto serial = m.phaseCost(p, 2.6);
  EXPECT_NEAR(serial.computeSeconds / parallel.computeSeconds,
              m.machine().cores, 1e-6);
}

TEST(CostModel, PowerIsMonotoneInFrequency) {
  const CostModel m = model();
  for (const auto& kernel : {computeKernel(), memoryKernel()}) {
    double last = 0.0;
    for (double f = 0.5; f <= 2.6; f += 0.1) {
      const double watts = m.phaseCost(kernel, f).powerWatts;
      ASSERT_GE(watts, last - 1e-9) << "f=" << f;
      last = watts;
    }
  }
}

TEST(CostModel, ComputeKernelsDrawMoreThanMemoryKernels) {
  const CostModel m = model();
  EXPECT_GT(m.phaseCost(computeKernel(), 2.6).powerWatts,
            m.phaseCost(memoryKernel(), 2.6).powerWatts + 5.0);
}

TEST(CostModel, PowerStaysWithinPackageEnvelope) {
  const CostModel m = model();
  for (const auto& kernel : {computeKernel(), memoryKernel()}) {
    for (double f = 0.5; f <= 2.6; f += 0.3) {
      const double watts = m.phaseCost(kernel, f).powerWatts;
      ASSERT_GT(watts, 5.0);
      ASSERT_LT(watts, m.machine().tdpWatts * 1.1);
    }
  }
}

TEST(CostModel, ReferenceIpcUsesBaseClock) {
  const CostModel m = model();
  const double instructions = 1e9;
  const double seconds = 0.01;
  const double expected =
      instructions /
      (seconds * m.machine().baseGhz * 1e9 * m.machine().cores);
  EXPECT_DOUBLE_EQ(m.referenceIpc(instructions, seconds), expected);
  EXPECT_EQ(m.referenceIpc(1e9, 0.0), 0.0);
}

TEST(CostModel, KernelCostAggregatesPhases) {
  const CostModel m = model();
  vis::KernelProfile kernel;
  kernel.kernel = "two-phase";
  kernel.phases = {computeKernel(), memoryKernel()};
  const auto total = m.kernelCost(kernel, 2.6);
  const auto a = m.phaseCost(computeKernel(), 2.6);
  const auto b = m.phaseCost(memoryKernel(), 2.6);
  EXPECT_NEAR(total.seconds, a.seconds + b.seconds, 1e-12);
  EXPECT_NEAR(total.energyJoules,
              a.powerWatts * a.seconds + b.powerWatts * b.seconds, 1e-9);
  EXPECT_EQ(total.phases.size(), 2u);
  EXPECT_GT(total.averagePowerWatts(), 0.0);
  EXPECT_GT(total.llcMissRate(), 0.0);
  EXPECT_LE(total.llcMissRate(), 1.0);
}

TEST(CostModel, RejectsNonPositiveFrequency) {
  const CostModel m = model();
  EXPECT_THROW(m.phaseCost(computeKernel(), 0.0), Error);
}

TEST(MachineDescription, VoltageAndScalesBehave) {
  const auto m = MachineDescription::broadwellE52695v4();
  EXPECT_NEAR(m.voltage(m.turboAllCoreGhz), 1.0, 1e-3);
  EXPECT_LT(m.voltage(1.2), 1.0);
  // Below the min P-state, voltage is pinned (duty cycling).
  EXPECT_DOUBLE_EQ(m.voltage(0.6), m.voltage(m.minPStateGhz));
  EXPECT_NEAR(m.dynamicScale(m.turboAllCoreGhz), 1.0, 1e-3);
  // Linear-in-f regime below the P-state floor.
  EXPECT_NEAR(m.dynamicScale(0.6) / m.dynamicScale(1.2), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(m.bandwidthAt(m.turboAllCoreGhz), m.memBandwidth);
  EXPECT_LT(m.bandwidthAt(1.4), m.memBandwidth);
  EXPECT_EQ(m.uncoreGhz(3.0), m.turboAllCoreGhz);
  EXPECT_EQ(m.uncoreGhz(0.8), m.uncoreMinGhz);
}

// Property sweep: for any mix of the two archetypes, time decreases
// monotonically with frequency and power increases monotonically.
class CostModelBlend : public ::testing::TestWithParam<double> {};

TEST_P(CostModelBlend, MonotoneInFrequency) {
  const CostModel m = model();
  const double blend = GetParam();
  vis::WorkProfile p = computeKernel();
  const vis::WorkProfile mem = memoryKernel();
  p.flops = p.flops * blend + mem.flops * (1 - blend);
  p.intOps = p.intOps * blend + mem.intOps * (1 - blend);
  p.memOps = p.memOps * blend + mem.memOps * (1 - blend);
  p.bytesStreamed = mem.bytesStreamed * (1 - blend);
  double lastT = 1e300;
  double lastP = 0.0;
  for (double f = 0.6; f <= 2.6; f += 0.2) {
    const auto cost = m.phaseCost(p, f);
    ASSERT_LE(cost.seconds, lastT + 1e-12);
    ASSERT_GE(cost.powerWatts, lastP - 1e-9);
    lastT = cost.seconds;
    lastP = cost.powerWatts;
  }
}

INSTANTIATE_TEST_SUITE_P(Blends, CostModelBlend,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace pviz::arch
