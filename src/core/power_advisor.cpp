#include "core/power_advisor.h"

#include <algorithm>
#include <vector>

namespace pviz::core {

PowerAdvisor::PowerAdvisor(arch::MachineDescription machine,
                           SimulatorOptions options)
    : simulator_(std::move(machine), options) {}

Classification PowerAdvisor::classify(
    const vis::KernelProfile& kernel,
    const std::vector<double>& capsWatts) const {
  PVIZ_REQUIRE(!capsWatts.empty(), "classification needs at least one cap");
  Classification result;

  const Measurement baseline = simulator_.run(kernel, capsWatts.front());
  result.drawAtTdpWatts = baseline.averageWatts;
  result.ipcAtTdp = baseline.ipc;
  result.kneeCapWatts = capsWatts.front();

  // Scan from the default cap downward; the knee is the lowest cap
  // before the first >=10% slowdown.
  double lastGoodCap = capsWatts.front();
  bool kneeFound = false;
  for (std::size_t i = 1; i < capsWatts.size(); ++i) {
    const Measurement run = simulator_.run(kernel, capsWatts[i]);
    const double slowdown =
        baseline.seconds > 0.0 ? run.seconds / baseline.seconds : 1.0;
    if (i + 1 == capsWatts.size()) result.slowdownAtMinCap = slowdown;
    if (!kneeFound) {
      if (slowdown >= slowdownThreshold) {
        kneeFound = true;
      } else {
        lastGoodCap = capsWatts[i];
      }
    }
  }
  result.kneeCapWatts = lastGoodCap;
  result.powerOpportunity = result.kneeCapWatts <= opportunityCapWatts;
  return result;
}

BudgetPlan PowerAdvisor::planBudget(const vis::KernelProfile& simKernel,
                                    const vis::KernelProfile& vizKernel,
                                    double averageBudgetWatts) const {
  PVIZ_REQUIRE(averageBudgetWatts > 0.0, "budget must be positive");
  const arch::MachineDescription& m = simulator_.machine();
  const double budget =
      std::clamp(averageBudgetWatts, m.minCapWatts, m.tdpWatts);

  // Baseline: the naive uniform cap on both phases.
  const Measurement simUniform = simulator_.run(simKernel, budget);
  const Measurement vizUniform = simulator_.run(vizKernel, budget);
  BudgetPlan plan;
  plan.uniformSeconds = simUniform.seconds + vizUniform.seconds;

  // Advised: search (vizCap, simCap) pairs — viz caps from its knee up
  // to the budget, and for each, the highest simulation cap whose
  // time-weighted average stays in budget.  The uniform plan
  // (vizCap = simCap = budget) is in the candidate set, so the advised
  // plan can never be worse than naive.
  plan.classification = classify(vizKernel);
  const double kneeCap =
      std::max(plan.classification.kneeCapWatts, m.minCapWatts);

  plan.simCapWatts = budget;
  plan.vizCapWatts = budget;
  plan.predictedSeconds = plan.uniformSeconds;
  plan.predictedAverageWatts =
      (simUniform.energyJoules + vizUniform.energyJoules) /
      plan.uniformSeconds;

  // Every viz cap walks the same simulation caps (budget + 2.5 k), so
  // each step is modeled once, filled lazily because the walk stops at
  // the first over-budget cap.  Step 0 is the uniform run.
  std::vector<Measurement> simRuns{simUniform};
  for (double vizCap = kneeCap; vizCap <= budget + 1e-9; vizCap += 2.5) {
    const Measurement vizRun = simulator_.run(vizKernel, vizCap);
    std::size_t step = 0;
    for (double simCap = budget; simCap <= m.tdpWatts + 1e-9;
         simCap += 2.5, ++step) {
      if (step == simRuns.size()) {
        simRuns.push_back(simulator_.run(simKernel, simCap));
      }
      const Measurement& simRun = simRuns[step];
      const double totalTime = simRun.seconds + vizRun.seconds;
      const double avgWatts =
          (simRun.energyJoules + vizRun.energyJoules) / totalTime;
      if (avgWatts > budget + 1e-9) break;  // power grows with the cap
      if (totalTime < plan.predictedSeconds) {
        plan.simCapWatts = simCap;
        plan.vizCapWatts = vizCap;
        plan.predictedSeconds = totalTime;
        plan.predictedAverageWatts = avgWatts;
      }
    }
  }
  plan.speedupVsUniform =
      plan.predictedSeconds > 0.0
          ? plan.uniformSeconds / plan.predictedSeconds
          : 1.0;
  return plan;
}

}  // namespace pviz::core
