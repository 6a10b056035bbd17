// Energy view of the study: for each algorithm, the cap that minimizes
// energy, energy-delay product, and time (the tradeoff the paper's
// §VII recipes exploit — power-opportunity algorithms can run at their
// minimum-energy cap nearly for free).
#include <iostream>

#include "bench_common.h"
#include "core/report.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Ablation — energy-optimal power caps per algorithm",
      "energy interpretation of Labasan et al., §VII");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  core::Study study(config);
  util::ExecutionContext ctx;

  util::TextTable table;
  table.setHeader({"Algorithm", "minTime cap", "minEDP cap", "minEnergy cap",
                   "E@TDP (J)", "E@minEnergy (J)", "T penalty"});
  for (core::Algorithm algorithm : core::allAlgorithms()) {
    const auto sweep = study.capSweep(ctx, algorithm, size, config.capsWatts,
                                      config.cycles);
    const core::OptimalCaps best = core::optimalCaps(sweep);
    const core::Measurement* atTdp = &sweep.front().measurement;
    const core::Measurement* atBest = nullptr;
    for (const auto& r : sweep) {
      if (r.capWatts == best.minEnergyCap) atBest = &r.measurement;
    }
    table.addRow(
        {core::algorithmName(algorithm),
         util::formatFixed(best.minTimeCap, 0) + "W",
         util::formatFixed(best.minEdpCap, 0) + "W",
         util::formatFixed(best.minEnergyCap, 0) + "W",
         util::formatFixed(atTdp->energyJoules, 1),
         util::formatFixed(atBest->energyJoules, 1),
         util::formatRatio(atBest->seconds / atTdp->seconds)});
  }
  table.print(std::cout);
  std::cout << "\nexpected: power-opportunity algorithms minimize energy at "
               "deep caps with a small time penalty; the compute-bound pair "
               "pays real time for its energy savings\n";
  return 0;
}
