// Ablation: the power advisor (§VII use case) vs a naive uniform cap.
//
// A CloverLeaf simulation phase and a visualization phase alternate on
// the package under an average power budget.  The advisor classifies
// the viz kernel, pins it near its knee, and hands the freed average
// power to the simulation.  This bench quantifies the win across
// budgets and visualization algorithms.
#include <iostream>

#include "bench_common.h"
#include "core/power_advisor.h"
#include "sim/cloverleaf.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Ablation — power advisor vs uniform power split",
      "Labasan et al., IPDPS'19, §VII (findings applied to a runtime)");

  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 32);
  // The simulation phase: a burst of 80 hydro steps, calibrated to
  // VTK-m/production scale like the study kernels.
  const vis::KernelProfile simKernel =
      core::scaleKernelWork(sim::hydroProfile(size, 80), 100.0);

  core::StudyConfig config = benchutil::defaultStudyConfig();
  core::Study study(config);
  util::ExecutionContext ctx;
  core::PowerAdvisor advisor(config.machine, config.simulator);

  util::TextTable table;
  table.setHeader({"Viz algorithm", "Budget(W)", "VizCap", "SimCap",
                   "Uniform(s)", "Advised(s)", "Speedup"});
  for (core::Algorithm algorithm :
       {core::Algorithm::Contour, core::Algorithm::RayTracing,
        core::Algorithm::VolumeRendering}) {
    const vis::KernelProfile vizKernel = core::scaleKernelWork(
        study.characterize(ctx, algorithm, size, config.params), 100.0);
    for (double budget : {80.0, 65.0, 50.0}) {
      const core::BudgetPlan plan =
          advisor.planBudget(simKernel, vizKernel, budget);
      table.addRow({core::algorithmName(algorithm),
                    util::formatFixed(budget, 0),
                    util::formatFixed(plan.vizCapWatts, 0),
                    util::formatFixed(plan.simCapWatts, 0),
                    util::formatFixed(plan.uniformSeconds, 3),
                    util::formatFixed(plan.predictedSeconds, 3),
                    util::formatRatio(plan.speedupVsUniform)});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: memory-bound viz (contour) frees the most "
               "power — the advisor runs the simulation above the budget "
               "while the time-weighted average complies; a compute-bound "
               "viz (volume rendering) offers little to reallocate\n";
  return 0;
}
