// Golden digests of the package-model output and the power advisor.
//
// Pins FNV-1a-64 over every field the study reports for the cap sweep of
// each algorithm at n = 32 and 57 (the paper's default caps 120..40 W,
// 10 cycles, work scale 100), over one multi-block override sweep, and
// over PowerAdvisor::classify / planBudget for every algorithm.  A second
// pair pins the idealized governor: every Measurement field of each
// algorithm's work-scaled profile at every default cap, and classify /
// planBudget at non-default caps and budgets (45..120 W).  The
// kernel profiles come from real kernel runs, so these digests also
// move if a kernel's operation counts change; the kernel output
// digests in test_kernel_golden.cpp separate the two.
//
// Byte order per sweep record: int(algorithm), size, capWatts; the eight
// scalar Measurement fields in declaration order; per phase its name
// bytes, name.size() and six doubles; per powerTrace sample time and
// watts; per timeline sample time, watts, joules, then the phase name
// bytes and size(); then pRatio, tRatio, fRatio.
//
// blockCount and ghostLayers are set explicitly so the digests hold when
// POWERVIZ_BLOCKS / POWERVIZ_GHOST change the process defaults.
#include <gtest/gtest.h>

#include <string>

#include "core/power_advisor.h"
#include "core/study.h"
#include "golden_digest.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"

namespace pviz::core {
namespace {

using pviz::testing::Fnv1a64;

StudyConfig goldenConfig() {
  StudyConfig config;
  config.params = AlgorithmParams::lightRendering();
  config.params.seedCount = 100;
  config.params.maxSteps = 100;
  config.params.blockCount = 1;
  config.params.ghostLayers = 1;
  return config;
}

void addString(Fnv1a64& h, const std::string& s) {
  h.addBytes(s.data(), s.size());
  h.addValue(s.size());
}

void addMeasurement(Fnv1a64& h, const Measurement& m) {
  for (double v : {m.seconds, m.energyJoules, m.averageWatts, m.meteredWatts,
                   m.effectiveGhz, m.ipc, m.llcMissRate,
                   m.elementsPerSecond}) {
    h.addValue(v);
  }
  for (const PhaseMeasurement& phase : m.phases) {
    addString(h, phase.name);
    for (double v : {phase.seconds, phase.averageWatts, phase.averageGhz,
                     phase.instructions, phase.llcMisses,
                     phase.llcReferences}) {
      h.addValue(v);
    }
  }
  for (const auto& sample : m.powerTrace) {
    h.addValue(sample.timeSeconds);
    h.addValue(sample.watts);
  }
  for (const auto& sample : m.timeline) {
    h.addValue(sample.timeSeconds);
    h.addValue(sample.watts);
    h.addValue(sample.joules);
    addString(h, sample.phase);
  }
}

void addRecords(Fnv1a64& h, const std::vector<ConfigRecord>& records) {
  for (const ConfigRecord& record : records) {
    h.addValue(static_cast<int>(record.algorithm));
    h.addValue(record.size);
    h.addValue(record.capWatts);
    addMeasurement(h, record.measurement);
    h.addValue(record.ratios.pRatio);
    h.addValue(record.ratios.tRatio);
    h.addValue(record.ratios.fRatio);
  }
}

struct ModelGolden {
  vis::Id cells;
  const char* study;
  const char* overrides;
  const char* advisor;
  const char* ideal;
  const char* advisor2;
};

class ModelGoldenTest : public ::testing::TestWithParam<ModelGolden> {};

TEST_P(ModelGoldenTest, SweepOverrideAndAdvisorDigestsMatch) {
  const ModelGolden& golden = GetParam();
  const vis::Id n = golden.cells;
  const StudyConfig config = goldenConfig();
  Study study(config);
  util::ExecutionContext ctx;

  Fnv1a64 sweeps;
  for (Algorithm algorithm : allAlgorithms()) {
    addRecords(sweeps, study.capSweep(ctx, algorithm, n, config.capsWatts,
                                      config.cycles));
  }
  EXPECT_EQ(sweeps.hex(), golden.study);

  AlgorithmParams blocks = config.params;
  blocks.blockCount = 2;
  Fnv1a64 overridden;
  for (const ConfigRecord& record :
       study.capSweep(ctx, Algorithm::Contour, n, config.capsWatts,
                      config.cycles, blocks)) {
    addMeasurement(overridden, record.measurement);
  }
  EXPECT_EQ(overridden.hex(), golden.overrides);

  PowerAdvisor advisor(config.machine);
  const vis::KernelProfile simKernel =
      scaleKernelWork(sim::hydroProfile(n, 5), config.workScale);
  Fnv1a64 advice;
  for (Algorithm algorithm : allAlgorithms()) {
    const vis::KernelProfile vizKernel = scaleKernelWork(
        study.characterize(ctx, algorithm, n, config.params), config.workScale);
    const Classification cls = advisor.classify(vizKernel);
    advice.addValue(cls.powerOpportunity);
    for (double v : {cls.kneeCapWatts, cls.drawAtTdpWatts,
                     cls.slowdownAtMinCap, cls.ipcAtTdp}) {
      advice.addValue(v);
    }
    const BudgetPlan plan = advisor.planBudget(simKernel, vizKernel, 80.0);
    for (double v : {plan.simCapWatts, plan.vizCapWatts, plan.predictedSeconds,
                     plan.uniformSeconds, plan.predictedAverageWatts,
                     plan.speedupVsUniform}) {
      advice.addValue(v);
    }
  }
  EXPECT_EQ(advice.hex(), golden.advisor);
}

TEST_P(ModelGoldenTest, IdealGovernorAndWideAdvisorDigestsMatch) {
  const ModelGolden& golden = GetParam();
  const vis::Id n = golden.cells;
  const StudyConfig config = goldenConfig();
  Study study(config);
  util::ExecutionContext ctx;
  ExecutionSimulator ideal(
      config.machine, {.governorQuantumSeconds = 0.005,
                       .meterIntervalSeconds = 0.1,
                       .idealGovernor = true});
  PowerAdvisor advisor(config.machine);
  const vis::KernelProfile simKernel =
      scaleKernelWork(sim::hydroProfile(n, 5), config.workScale);

  Fnv1a64 measurements;
  Fnv1a64 advice;
  for (Algorithm algorithm : allAlgorithms()) {
    const vis::KernelProfile vizKernel = scaleKernelWork(
        study.characterize(ctx, algorithm, n, config.params), config.workScale);
    for (double cap : config.capsWatts) {
      addMeasurement(measurements, ideal.run(vizKernel, cap));
    }
    const Classification cls = advisor.classify(vizKernel, {120, 95, 70, 45});
    advice.addValue(cls.powerOpportunity);
    for (double v : {cls.kneeCapWatts, cls.drawAtTdpWatts,
                     cls.slowdownAtMinCap, cls.ipcAtTdp}) {
      advice.addValue(v);
    }
    for (double budget : {45.0, 70.0, 100.0, 120.0}) {
      const BudgetPlan plan = advisor.planBudget(simKernel, vizKernel, budget);
      for (double v :
           {plan.simCapWatts, plan.vizCapWatts, plan.predictedSeconds,
            plan.uniformSeconds, plan.predictedAverageWatts,
            plan.speedupVsUniform}) {
        advice.addValue(v);
      }
    }
  }
  EXPECT_EQ(measurements.hex(), golden.ideal);
  EXPECT_EQ(advice.hex(), golden.advisor2);
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, ModelGoldenTest,
    ::testing::Values(ModelGolden{32, "e897f249a3d3ad73", "cc7228b12a2c357b",
                                  "de3bb57d69e28e1c", "a6607268c75c2255",
                                  "9611f8c2b43206c3"},
                      ModelGolden{57, "2eba5e40f5d429c3", "0eb5b2647cccf847",
                                  "01f85962e8e67d20", "57198ee718f48fd6",
                                  "5c7e2921ebfbf758"}),
    [](const ::testing::TestParamInfo<ModelGolden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

}  // namespace
}  // namespace pviz::core
