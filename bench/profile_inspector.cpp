// Developer/calibration tool: per-phase cost breakdown for every
// algorithm at a chosen size and frequency.  Not a paper artifact, but
// the fastest way to see *why* an algorithm lands in a class — which
// phase dominates, where the bytes go, what the package draws.
//
//   PVIZ_SIZE=64 PVIZ_GHZ=2.6 ./profile_inspector
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

int main() {
  core::StudyConfig config = benchutil::defaultStudyConfig();
  config.cycles = 1;
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  const double ghz = [] {
    const char* v = std::getenv("PVIZ_GHZ");
    return v != nullptr ? std::atof(v) : 2.6;
  }();

  core::Study study(config);
  util::ExecutionContext ctx;
  const arch::CostModel model(config.machine);

  benchutil::printBanner("Profile inspector — per-phase cost breakdown",
                         "(calibration tool, not a paper artifact)");
  std::cout << "size " << size << "^3, core frequency " << ghz << " GHz\n";

  for (core::Algorithm algorithm : core::allAlgorithms()) {
    const vis::KernelProfile& profile =
        study.characterize(ctx, algorithm, size, config.params);
    const arch::KernelCost cost = model.kernelCost(profile, ghz);

    std::cout << '\n'
              << core::algorithmName(algorithm) << " — total "
              << util::formatFixed(cost.seconds * 1e3, 2) << " ms, "
              << util::formatFixed(cost.averagePowerWatts(), 1) << " W, IPC "
              << util::formatFixed(
                     model.referenceIpc(cost.instructions, cost.seconds), 2)
              << ", LLC miss rate "
              << util::formatFixed(cost.llcMissRate(), 3) << '\n';

    util::TextTable table;
    table.setHeader({"Phase", "ms", "Tc(ms)", "Tm(ms)", "W", "util", "bwUtil",
                     "fpShare", "GInstr", "DRAM(MB)"});
    for (std::size_t p = 0; p < profile.phases.size(); ++p) {
      const arch::PhaseCost& pc = cost.phases[p];
      table.addRow({profile.phases[p].name,
                    util::formatFixed(pc.seconds * 1e3, 2),
                    util::formatFixed(pc.computeSeconds * 1e3, 2),
                    util::formatFixed(pc.memorySeconds * 1e3, 2),
                    util::formatFixed(pc.powerWatts, 1),
                    util::formatFixed(pc.coreUtilization, 2),
                    util::formatFixed(pc.bandwidthUtilization, 2),
                    util::formatFixed(pc.fpShare, 2),
                    util::formatFixed(pc.instructions / 1e9, 2),
                    util::formatFixed(pc.dramBytes / 1e6, 1)});
    }
    table.print(std::cout);
  }
  return 0;
}
