// Tightly-coupled in situ pipeline tests.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "util/exec_context.h"

namespace pviz::core {
namespace {

PipelineConfig smallPipeline() {
  PipelineConfig config;
  config.cellsPerAxis = 24;
  config.simStepsPerCycle = 150;  // realistic sim-dominated cycles
  config.cycles = 3;
  config.algorithms = {Algorithm::Contour};
  config.params = AlgorithmParams::lightRendering();
  config.params.isovalueCount = 3;  // keep viz launch overhead modest
  config.params.seedCount = 30;
  config.params.maxSteps = 30;
  return config;
}

TEST(Pipeline, RunsAllCyclesAndAccountsTimeAndEnergy) {
  util::ExecutionContext ctx;
  const PipelineReport report = runInSituPipeline(ctx, smallPipeline());
  ASSERT_EQ(report.cycles.size(), 3u);
  EXPECT_GT(report.totalSeconds, 0.0);
  EXPECT_GT(report.totalEnergyJoules, 0.0);
  double sum = 0.0;
  for (const auto& cycle : report.cycles) {
    EXPECT_GT(cycle.simSeconds, 0.0);
    EXPECT_GT(cycle.vizSeconds, 0.0);
    EXPECT_GT(cycle.simWatts, 10.0);
    EXPECT_GT(cycle.vizWatts, 10.0);
    sum += cycle.simSeconds + cycle.vizSeconds;
  }
  EXPECT_NEAR(sum, report.totalSeconds, 1e-9);
  EXPECT_GT(report.averageWatts(), 10.0);
}

TEST(Pipeline, VizFractionIsAProperFraction) {
  util::ExecutionContext ctx;
  const PipelineReport report = runInSituPipeline(ctx, smallPipeline());
  EXPECT_GT(report.vizFraction, 0.0);
  EXPECT_LT(report.vizFraction, 1.0);
}

TEST(Pipeline, CappingVizBarelyHurtsCappingSimHurtsMore) {
  util::ExecutionContext ctx;
  // The paper's central use case: visualization tolerates a low cap;
  // the simulation does not.
  PipelineConfig config = smallPipeline();
  const PipelineReport uncapped = runInSituPipeline(ctx, config);

  config.vizCapWatts = 45.0;
  config.simCapWatts = 120.0;
  const PipelineReport vizCapped = runInSituPipeline(ctx, config);

  config.vizCapWatts = 120.0;
  config.simCapWatts = 45.0;
  const PipelineReport simCapped = runInSituPipeline(ctx, config);

  const double vizPenalty = vizCapped.totalSeconds / uncapped.totalSeconds;
  const double simPenalty = simCapped.totalSeconds / uncapped.totalSeconds;
  EXPECT_GT(simPenalty, vizPenalty);
  EXPECT_LT(vizPenalty, 1.35);
  EXPECT_GT(simPenalty, 1.15);
  // And the viz-capped pipeline burns less energy than uncapped.
  EXPECT_LT(vizCapped.totalEnergyJoules, uncapped.totalEnergyJoules);
}

TEST(Pipeline, MultipleAlgorithmsExtendVizTime) {
  util::ExecutionContext ctx;
  PipelineConfig one = smallPipeline();
  PipelineConfig two = smallPipeline();
  two.algorithms = {Algorithm::Contour, Algorithm::Threshold};
  const PipelineReport a = runInSituPipeline(ctx, one);
  const PipelineReport b = runInSituPipeline(ctx, two);
  EXPECT_GT(b.vizFraction, a.vizFraction);
}

TEST(Pipeline, ValidatesConfiguration) {
  util::ExecutionContext ctx;
  PipelineConfig config = smallPipeline();
  config.cycles = 0;
  EXPECT_THROW(runInSituPipeline(ctx, config), Error);
  config = smallPipeline();
  config.algorithms.clear();
  EXPECT_THROW(runInSituPipeline(ctx, config), Error);
}

TEST(Pipeline, VizFractionLandsInThePaperBallparkWithRenderers) {
  util::ExecutionContext ctx;
  // With a rendering-heavy pipeline the paper quotes 10-20% of total
  // time in visualization; our small configuration lands in a broad
  // band around that.
  PipelineConfig config = smallPipeline();
  config.simStepsPerCycle = 400;
  config.algorithms = {Algorithm::Contour};
  const PipelineReport report = runInSituPipeline(ctx, config);
  EXPECT_GT(report.vizFraction, 0.005);
  EXPECT_LT(report.vizFraction, 0.6);
}

}  // namespace
}  // namespace pviz::core
