// Power-budget advisor scenario: a job must hold a 65 W average package
// budget while alternating a hydro simulation with a visualization
// routine.  The advisor classifies each candidate visualization
// algorithm and plans the cap split; compare against the naive uniform
// cap.
//
//   $ ./power_budget_advisor
#include <iostream>

#include "core/power_advisor.h"
#include "core/study.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/table.h"

int main() {
  using namespace pviz;

  // The simulation side: ten hydro steps on a 24^3 grid.
  const vis::KernelProfile simKernel =
      core::scaleKernelWork(sim::hydroProfile(24, 10), 100.0);

  // Characterize three visualization candidates on the current state.
  core::StudyConfig config;
  config.sizes = {24};
  config.params = core::AlgorithmParams::lightRendering();
  core::Study study(config);
  util::ExecutionContext ctx;

  core::PowerAdvisor advisor;
  const double budget = 65.0;

  std::cout << "average package budget: " << budget << " W\n\n";
  util::TextTable table;
  table.setHeader({"Viz algorithm", "Class", "Knee(W)", "Draw(W)", "VizCap",
                   "SimCap", "Speedup vs uniform"});
  for (core::Algorithm algorithm :
       {core::Algorithm::Contour, core::Algorithm::Threshold,
        core::Algorithm::VolumeRendering}) {
    const vis::KernelProfile vizKernel = core::scaleKernelWork(
        study.characterize(ctx, algorithm, 24, config.params), 100.0);
    const core::Classification cls = advisor.classify(vizKernel);
    const core::BudgetPlan plan =
        advisor.planBudget(simKernel, vizKernel, budget);
    table.addRow({core::algorithmName(algorithm),
                  cls.powerOpportunity ? "opportunity" : "sensitive",
                  util::formatFixed(cls.kneeCapWatts, 0),
                  util::formatFixed(cls.drawAtTdpWatts, 1),
                  util::formatFixed(plan.vizCapWatts, 0),
                  util::formatFixed(plan.simCapWatts, 0),
                  util::formatRatio(plan.speedupVsUniform)});
  }
  table.print(std::cout);
  std::cout << "\npower-opportunity visualizations free budget for the "
               "power-hungry simulation;\na compute-bound visualization "
               "has little to give\n";
  return 0;
}
