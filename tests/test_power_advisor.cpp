// Power advisor tests: classification and budget planning.
#include <gtest/gtest.h>

#include "core/power_advisor.h"

namespace pviz::core {
namespace {

vis::KernelProfile hotKernel() {
  vis::KernelProfile k;
  k.kernel = "simulation";
  k.elements = 1 << 20;
  vis::WorkProfile& p = k.addPhase("hydro");
  p.flops = 6e10;
  p.intOps = 2e10;
  p.memOps = 1.5e10;
  p.bytesStreamed = 2e9;
  p.bytesReused = 5e9;
  p.workingSetBytes = 1e6;
  p.parallelFraction = 0.99;
  p.overlap = 0.8;
  return k;
}

vis::KernelProfile coolKernel() {
  vis::KernelProfile k;
  k.kernel = "viz";
  k.elements = 1 << 20;
  vis::WorkProfile& p = k.addPhase("stream");
  // Contour-like: latency-bound gathers over a cache-resident field
  // with moderate streaming — a low-draw power donor.
  p.flops = 1e9;
  p.intOps = 3e9;
  p.memOps = 3e9;
  p.bytesStreamed = 1.5e10;
  p.irregularAccesses = 2.5e9;
  p.workingSetBytes = 1e7;
  p.parallelFraction = 0.99;
  p.overlap = 0.9;
  return k;
}

TEST(PowerAdvisor, ClassifiesComputeBoundAsPowerSensitive) {
  PowerAdvisor advisor;
  const Classification c = advisor.classify(hotKernel());
  EXPECT_FALSE(c.powerOpportunity);
  EXPECT_GT(c.kneeCapWatts, 60.0);
  EXPECT_GT(c.drawAtTdpWatts, 75.0);
  EXPECT_GT(c.slowdownAtMinCap, 1.4);
  EXPECT_GT(c.ipcAtTdp, 1.0);
}

TEST(PowerAdvisor, ClassifiesMemoryBoundAsPowerOpportunity) {
  PowerAdvisor advisor;
  const Classification c = advisor.classify(coolKernel());
  EXPECT_TRUE(c.powerOpportunity);
  EXPECT_LE(c.kneeCapWatts, 60.0);
  EXPECT_LT(c.drawAtTdpWatts, 70.0);
  EXPECT_LT(c.ipcAtTdp, 1.0);
}

TEST(PowerAdvisor, ClassificationValidatesInput) {
  PowerAdvisor advisor;
  EXPECT_THROW(advisor.classify(coolKernel(), {}), Error);
}

TEST(PowerAdvisor, BudgetPlanRespectsTheBudget) {
  PowerAdvisor advisor;
  const BudgetPlan plan =
      advisor.planBudget(hotKernel(), coolKernel(), 70.0);
  EXPECT_LE(plan.predictedAverageWatts, 70.0 + 0.5);
  EXPECT_GE(plan.simCapWatts, 70.0);          // sim got the freed headroom
  EXPECT_LE(plan.vizCapWatts, plan.simCapWatts);  // viz never out-caps sim
  EXPECT_GE(plan.speedupVsUniform, 1.0 - 1e-9);   // never worse than naive
  EXPECT_GT(plan.predictedSeconds, 0.0);
  EXPECT_GT(plan.uniformSeconds, 0.0);
}

TEST(PowerAdvisor, AdvisedPlanBeatsUniformUnderATightBudget) {
  PowerAdvisor advisor;
  const BudgetPlan plan =
      advisor.planBudget(hotKernel(), coolKernel(), 65.0);
  // The whole point of the paper: reallocating power from the
  // insensitive viz phase to the hungry simulation wins wall time.
  // The viz phase draws well under the budget, so the advisor can run
  // the simulation above it while the time-weighted average complies.
  EXPECT_GT(plan.speedupVsUniform, 1.01);
  EXPECT_GT(plan.simCapWatts, 65.0);
}

// The engine's budget reply takes its classification from the plan, so
// the plan must carry exactly what classify computes.
TEST(PowerAdvisor, BudgetPlanCarriesTheVizClassification) {
  const PowerAdvisor advisor;
  const Classification expected = advisor.classify(coolKernel());
  for (double budget : {45.0, 70.0, 120.0}) {
    SCOPED_TRACE(budget);
    const Classification got =
        advisor.planBudget(hotKernel(), coolKernel(), budget).classification;
    EXPECT_EQ(got.powerOpportunity, expected.powerOpportunity);
    EXPECT_EQ(got.kneeCapWatts, expected.kneeCapWatts);
    EXPECT_EQ(got.drawAtTdpWatts, expected.drawAtTdpWatts);
    EXPECT_EQ(got.slowdownAtMinCap, expected.slowdownAtMinCap);
    EXPECT_EQ(got.ipcAtTdp, expected.ipcAtTdp);
  }
}

TEST(PowerAdvisor, GenerousBudgetConvergesToUncapped) {
  PowerAdvisor advisor;
  const BudgetPlan plan =
      advisor.planBudget(hotKernel(), coolKernel(), 120.0);
  EXPECT_NEAR(plan.speedupVsUniform, 1.0, 0.1);
}

TEST(PowerAdvisor, RejectsBadBudget) {
  PowerAdvisor advisor;
  EXPECT_THROW(advisor.planBudget(hotKernel(), coolKernel(), 0.0), Error);
}

// Property: the knee is monotone in the kernel's appetite — scaling the
// compute intensity up never moves the knee to a lower cap.
class AdvisorKneeSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdvisorKneeSweep, KneeTracksComputeIntensity) {
  PowerAdvisor advisor;
  vis::KernelProfile base = coolKernel();
  vis::KernelProfile scaled = base;
  scaled.phases[0].flops *= GetParam();
  scaled.phases[0].intOps *= GetParam();
  const Classification a = advisor.classify(base);
  const Classification b = advisor.classify(scaled);
  EXPECT_GE(b.kneeCapWatts, a.kneeCapWatts - 1e-9);
  EXPECT_GE(b.drawAtTdpWatts, a.drawAtTdpWatts - 1.0);
}

INSTANTIATE_TEST_SUITE_P(Intensities, AdvisorKneeSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 30.0));

}  // namespace
}  // namespace pviz::core
