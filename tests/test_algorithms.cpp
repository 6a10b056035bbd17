// Algorithm registry tests: all eight study algorithms run end-to-end
// on a small CloverLeaf-like dataset.
#include <gtest/gtest.h>

#include <set>

#include "core/algorithms.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"

namespace pviz::core {
namespace {

const vis::UniformGrid& dataset() {
  static const vis::UniformGrid grid = sim::makeCloverField(16);
  return grid;
}

AlgorithmParams lightParams() {
  AlgorithmParams p = AlgorithmParams::lightRendering();
  p.seedCount = 100;
  p.maxSteps = 100;
  return p;
}

TEST(Algorithms, RegistryHasEightUniqueNames) {
  const auto& all = allAlgorithms();
  EXPECT_EQ(all.size(), 8u);
  std::set<std::string> names;
  for (Algorithm algorithm : all) {
    names.insert(algorithmName(algorithm));
  }
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(names.count("Contour"));
  EXPECT_TRUE(names.count("Volume Rendering"));
}

TEST(Algorithms, FrameworkOverheadScalesWithLaunches) {
  const auto one = frameworkOverheadPhase(1);
  const auto ten = frameworkOverheadPhase(10);
  EXPECT_NEAR(ten.instructions(), 10.0 * one.instructions(), 1e-6);
  EXPECT_EQ(one.name, "framework-overhead");
  EXPECT_LT(one.parallelFraction, 0.5);  // dispatch glue is mostly serial
  EXPECT_THROW(frameworkOverheadPhase(-1), Error);
  EXPECT_EQ(frameworkOverheadPhase(0).instructions(), 0.0);
}

TEST(Algorithms, CameraSamplingExtrapolatesRenderWork) {
  util::ExecutionContext ctx;
  AlgorithmParams sampled = lightParams();
  sampled.cameraCount = 16;
  sampled.sampledCameraCount = 4;
  AlgorithmParams full = lightParams();
  full.cameraCount = 16;
  full.sampledCameraCount = 0;  // trace all 16
  const auto a =
      runAlgorithm(ctx, Algorithm::VolumeRendering, dataset(), sampled);
  const auto b =
      runAlgorithm(ctx, Algorithm::VolumeRendering, dataset(), full);
  double ia = 0.0, ib = 0.0;
  for (const auto& ph : a.phases) {
    if (ph.name == "ray-march") ia = ph.instructions();
  }
  for (const auto& ph : b.phases) {
    if (ph.name == "ray-march") ib = ph.instructions();
  }
  ASSERT_GT(ia, 0.0);
  // Extrapolated work is within a few percent of actually tracing all
  // cameras (views differ slightly).
  EXPECT_NEAR(ia / ib, 1.0, 0.05);
}

TEST(Algorithms, EffectiveSampledCamerasClamps) {
  AlgorithmParams p;
  p.cameraCount = 10;
  p.sampledCameraCount = 0;
  EXPECT_EQ(p.effectiveSampledCameras(), 10);
  p.sampledCameraCount = 4;
  EXPECT_EQ(p.effectiveSampledCameras(), 4);
  p.sampledCameraCount = 50;
  EXPECT_EQ(p.effectiveSampledCameras(), 10);
}

class AllAlgorithmsRun : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AllAlgorithmsRun, ProducesAWellFormedProfile) {
  util::ExecutionContext ctx;
  const vis::KernelProfile profile =
      runAlgorithm(ctx, GetParam(), dataset(), lightParams());
  EXPECT_FALSE(profile.kernel.empty());
  EXPECT_EQ(profile.elements, dataset().numCells());
  ASSERT_GE(profile.phases.size(), 2u);  // work + framework overhead
  EXPECT_EQ(profile.phases.back().name, "framework-overhead");
  double instructions = 0.0;
  for (const auto& phase : profile.phases) {
    ASSERT_FALSE(phase.name.empty());
    ASSERT_GE(phase.flops, 0.0);
    ASSERT_GE(phase.bytesStreamed, 0.0);
    ASSERT_GE(phase.parallelFraction, 0.0);
    ASSERT_LE(phase.parallelFraction, 1.0);
    ASSERT_GE(phase.overlap, 0.0);
    ASSERT_LE(phase.overlap, 1.0);
    instructions += phase.instructions();
  }
  EXPECT_GT(instructions, 1e5);
}

INSTANTIATE_TEST_SUITE_P(
    Study, AllAlgorithmsRun, ::testing::ValuesIn(allAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& param) {
      std::string name = algorithmName(param.param);
      name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
      return name;
    });

}  // namespace
}  // namespace pviz::core
