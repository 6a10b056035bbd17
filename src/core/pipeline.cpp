#include "core/pipeline.h"

#include <utility>

#include "util/exec_context.h"
#include "viz/dataset/field.h"

namespace pviz::core {

PipelineReport runInSituPipeline(util::ExecutionContext& ctx,
                                 const PipelineConfig& config) {
  PVIZ_REQUIRE(config.cycles >= 1, "pipeline needs at least one cycle");
  PVIZ_REQUIRE(!config.algorithms.empty(),
               "pipeline needs at least one algorithm");

  sim::CloverLeaf clover(ctx, config.cellsPerAxis);
  ExecutionSimulator simulator(config.machine, config.simulator);
  const vis::KernelProfile simProfile = scaleKernelWork(
      sim::hydroProfile(config.cellsPerAxis, config.simStepsPerCycle),
      config.workScale);

  PipelineReport report;
  double vizSecondsTotal = 0.0;
  util::Buffer<double> previousVelocity;  // last cycle's velocity samples

  for (int cycle = 0; cycle < config.cycles; ++cycle) {
    ctx.cancel().throwIfCancelled();  // per-cycle cancellation point
    CycleReport cr;
    cr.cycle = cycle;

    // --- Simulation phase under the simulation cap. ----------------------
    clover.run(ctx, config.simStepsPerCycle);
    const Measurement simRun =
        simulator.run(simProfile, config.simCapWatts, &ctx.cancel());
    cr.simSeconds = simRun.seconds;
    cr.simWatts = simRun.averageWatts;

    // --- Visualization phase under the visualization cap. ----------------
    vis::UniformGrid dataset = clover.exportForViz(ctx);
    if (config.params.advectionMode == "pathline") {
      // Pathline advection traces the unsteady flow across one cycle:
      // attach the previous cycle's velocity so the filter interpolates
      // velocity_prev → velocity in integration time.  Cycle 0 has no
      // predecessor and degenerates to a steady window (the filter
      // falls back to velocity → velocity).
      if (!previousVelocity.empty()) {
        dataset.addField(vis::Field("velocity_prev", vis::Association::Points,
                                    3, previousVelocity));
      }
      previousVelocity = dataset.field("velocity").data();
    }
    for (Algorithm algorithm : config.algorithms) {
      const vis::KernelProfile vizProfile =
          scaleKernelWork(runAlgorithm(ctx, algorithm, dataset, config.params),
                          config.workScale);
      const Measurement vizRun =
          simulator.run(vizProfile, config.vizCapWatts, &ctx.cancel());
      cr.vizSeconds += vizRun.seconds;
      cr.vizWatts += vizRun.averageWatts * vizRun.seconds;
      report.totalEnergyJoules += vizRun.energyJoules;
    }
    if (cr.vizSeconds > 0.0) cr.vizWatts /= cr.vizSeconds;

    report.totalEnergyJoules += simRun.energyJoules;
    report.totalSeconds += cr.simSeconds + cr.vizSeconds;
    vizSecondsTotal += cr.vizSeconds;
    report.cycles.push_back(cr);
  }

  report.vizFraction =
      report.totalSeconds > 0.0 ? vizSecondsTotal / report.totalSeconds : 0.0;
  return report;
}

}  // namespace pviz::core
