// Future-work experiment (paper §VIII): how do the power/performance
// tradeoffs transfer to other architectures that provide power capping?
//
// The same characterized visualization workloads replayed on three
// modeled packages (Broadwell as in the study, a Skylake-SP-class part,
// an EPYC-class part).  The class structure — who tolerates caps, who
// does not — should be architecture-invariant even though the knees
// move with each machine's TDP and power balance.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Ablation — tradeoffs across cap-capable architectures",
      "Labasan et al., IPDPS'19, §VIII future work");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  core::Study study(config);
  util::ExecutionContext ctx;

  const arch::MachineDescription machines[] = {
      arch::MachineDescription::broadwellE52695v4(),
      arch::MachineDescription::skylakeLike(),
      arch::MachineDescription::epycLike(),
  };

  for (const auto& machine : machines) {
    core::ExecutionSimulator simulator(machine, config.simulator);
    std::cout << '\n' << machine.name << " (TDP " << machine.tdpWatts
              << " W, floor " << machine.minCapWatts << " W, "
              << machine.cores << " cores @ " << machine.turboAllCoreGhz
              << " GHz)\n";
    util::TextTable table;
    table.setHeader({"Algorithm", "Draw(W)", "Tratio@75%", "Tratio@50%",
                     "Tratio@floor", "Class"});
    for (core::Algorithm algorithm : core::allAlgorithms()) {
      const vis::KernelProfile kernel = core::repeatKernel(
          core::scaleKernelWork(
              study.characterize(ctx, algorithm, size, config.params), 100.0),
          config.cycles);
      const core::Measurement base = simulator.run(kernel, machine.tdpWatts);
      auto ratioAt = [&](double frac) {
        const double cap = machine.minCapWatts +
                           frac * (machine.tdpWatts - machine.minCapWatts);
        return simulator.run(kernel, cap).seconds / base.seconds;
      };
      const double floorRatio = ratioAt(0.0);
      table.addRow({core::algorithmName(algorithm),
                    util::formatFixed(base.averageWatts, 1),
                    util::formatRatio(ratioAt(0.75)),
                    util::formatRatio(ratioAt(0.5)),
                    util::formatRatio(floorRatio),
                    floorRatio < 1.35 ? "power opportunity"
                                      : "power sensitive"});
    }
    table.print(std::cout);
  }
  std::cout << "\nexpected: the opportunity/sensitive split is the same on "
               "every machine; knees shift with TDP headroom\n";
  return 0;
}
