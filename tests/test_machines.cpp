// Alternative machine descriptions (the paper's cross-architecture
// future work): the class structure must be architecture-invariant
// even when the exact knees move.
#include <gtest/gtest.h>

#include "core/execution_sim.h"

namespace pviz::core {
namespace {

vis::KernelProfile computeKernel() {
  vis::KernelProfile k;
  k.kernel = "compute";
  vis::WorkProfile& p = k.addPhase("hot");
  p.flops = 4e10;
  p.intOps = 1.5e10;
  p.memOps = 1e10;
  p.bytesReused = 5e8;
  p.workingSetBytes = 1e6;
  p.parallelFraction = 0.99;
  p.overlap = 0.7;
  return k;
}

vis::KernelProfile memoryKernel() {
  vis::KernelProfile k;
  k.kernel = "memory";
  vis::WorkProfile& p = k.addPhase("stream");
  p.flops = 5e8;
  p.intOps = 2e9;
  p.memOps = 2e9;
  p.bytesStreamed = 3e10;
  p.irregularAccesses = 2e9;
  p.workingSetBytes = 1e7;
  p.parallelFraction = 0.99;
  p.overlap = 0.9;
  return k;
}

class MachineSweep
    : public ::testing::TestWithParam<arch::MachineDescription> {};

TEST_P(MachineSweep, VoltageNormalizedAtTurbo) {
  const arch::MachineDescription m = GetParam();
  EXPECT_NEAR(m.voltage(m.turboAllCoreGhz), 1.0, 1e-9);
  EXPECT_NEAR(m.dynamicScale(m.turboAllCoreGhz), 1.0, 1e-9);
  EXPECT_GT(m.tdpWatts, m.minCapWatts);
  EXPECT_GT(m.cores, 0);
}

TEST_P(MachineSweep, ClassStructureHoldsAcrossArchitectures) {
  const arch::MachineDescription m = GetParam();
  ExecutionSimulator sim(m);
  const auto compute = computeKernel();
  const auto memory = memoryKernel();

  const Measurement cFree = sim.run(compute, m.tdpWatts);
  const Measurement mFree = sim.run(memory, m.tdpWatts);
  // Compute kernels always draw more than memory kernels.
  EXPECT_GT(cFree.averageWatts, mFree.averageWatts + 4.0) << m.name;

  // A deep cap: the compute kernel suffers more than the memory one.
  const double deepCap =
      m.minCapWatts + 0.15 * (m.tdpWatts - m.minCapWatts);
  const double cSlow = sim.run(compute, deepCap).seconds / cFree.seconds;
  const double mSlow = sim.run(memory, deepCap).seconds / mFree.seconds;
  EXPECT_GT(cSlow, 1.05) << m.name;  // the cap actually bites
  EXPECT_GT(cSlow, mSlow) << m.name;

  // Tratio <= Pratio everywhere.
  for (double frac : {0.8, 0.6, 0.4}) {
    const double cap =
        m.minCapWatts + frac * (m.tdpWatts - m.minCapWatts);
    const double pRatio = m.tdpWatts / cap;
    EXPECT_LE(sim.run(compute, cap).seconds / cFree.seconds,
              pRatio * 1.05)
        << m.name;
    EXPECT_LE(sim.run(memory, cap).seconds / mFree.seconds, pRatio * 1.05)
        << m.name;
  }
}

TEST_P(MachineSweep, UncappedRunsAtTurbo) {
  const arch::MachineDescription m = GetParam();
  ExecutionSimulator sim(m);
  const Measurement free = sim.run(memoryKernel(), m.tdpWatts);
  EXPECT_NEAR(free.effectiveGhz, m.turboAllCoreGhz, 0.05) << m.name;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MachineSweep,
    ::testing::Values(arch::MachineDescription::broadwellE52695v4(),
                      arch::MachineDescription::skylakeLike(),
                      arch::MachineDescription::epycLike()),
    [](const ::testing::TestParamInfo<arch::MachineDescription>& param) {
      switch (param.index) {
        case 0: return std::string("Broadwell");
        case 1: return std::string("Skylake");
        default: return std::string("Epyc");
      }
    });

TEST(Machines, ArchitecturesActuallyDiffer) {
  const auto bdw = arch::MachineDescription::broadwellE52695v4();
  const auto skx = arch::MachineDescription::skylakeLike();
  const auto epyc = arch::MachineDescription::epycLike();
  // More bandwidth shortens memory-bound runs.
  ExecutionSimulator simBdw(bdw), simSkx(skx), simEpyc(epyc);
  const auto memory = memoryKernel();
  const double tBdw = simBdw.run(memory, bdw.tdpWatts).seconds;
  const double tEpyc = simEpyc.run(memory, epyc.tdpWatts).seconds;
  EXPECT_LT(tEpyc, tBdw);
  // More cores + higher clocks shorten compute-bound runs.
  const auto compute = computeKernel();
  const double cBdw = simBdw.run(compute, bdw.tdpWatts).seconds;
  const double cSkx = simSkx.run(compute, skx.tdpWatts).seconds;
  EXPECT_LT(cSkx, cBdw);
}

}  // namespace
}  // namespace pviz::core
