// Ablation: RAPL governor policy — stepwise (slew-limited proportional
// control, hardware-like) vs idealized (exact power-balance solve per
// quantum), across control-quantum lengths.
//
// Shows (a) both converge to the same steady state on long kernels, and
// (b) coarse control quanta inflate short-kernel variance — why the
// study runs several visualization cycles per configuration.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Ablation — governor policy and control quantum",
      "measurement methodology behind Tables I-III");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  core::Study study(config);
  util::ExecutionContext ctx;
  const vis::KernelProfile& base = study.characterize(
      ctx, core::Algorithm::VolumeRendering, size, config.params);

  util::TextTable table;
  table.setHeader({"governor", "quantum(ms)", "cycles", "T(s)", "EffGHz",
                   "avgW", "meterW"});
  for (bool ideal : {false, true}) {
    for (double quantumMs : {1.0, 5.0, 20.0}) {
      for (int cycles : {1, 10}) {
        core::SimulatorOptions options;
        options.idealGovernor = ideal;
        options.governorQuantumSeconds = quantumMs / 1000.0;
        core::ExecutionSimulator simulator(config.machine, options);
        const core::Measurement m = simulator.run(
            core::repeatKernel(base, cycles), 60.0);
        table.addRow({ideal ? "ideal" : "stepwise",
                      util::formatFixed(quantumMs, 0),
                      std::to_string(cycles),
                      util::formatFixed(m.seconds, 3),
                      util::formatFixed(m.effectiveGhz, 2),
                      util::formatFixed(m.averageWatts, 1),
                      util::formatFixed(m.meteredWatts, 1)});
      }
    }
  }
  std::cout << "\nvolume rendering at " << size << "^3 under a 60 W cap\n";
  table.print(std::cout);
  std::cout << "\nexpected: ideal and stepwise agree at 10 cycles; "
               "single-cycle stepwise runs show transient effects that "
               "grow with the control quantum\n";
  return 0;
}
