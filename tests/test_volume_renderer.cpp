// Volume rendering tests.
#include <gtest/gtest.h>

#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz::vis {
namespace {

UniformGrid dataset() { return sim::makeCloverField(12); }

TEST(VolumeRenderer, AccumulatedAlphaStaysInRange) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(32, 32);
  renderer.setCameraCount(2);
  renderer.setKeepFirstImageOnly(false);
  const auto result = renderer.run(ctx, g, "energy");
  ASSERT_EQ(result.images.size(), 2u);
  for (const auto& image : result.images) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        const Color& c = image.at(x, y);
        ASSERT_GE(c.a, 0.0);
        ASSERT_LE(c.a, 1.0 + 1e-9);
        ASSERT_GE(c.r, 0.0);
      }
    }
  }
}

TEST(VolumeRenderer, CoversTheDatasetSilhouette) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(40, 40);
  renderer.setCameraCount(1);
  const auto result = renderer.run(ctx, g, "energy");
  const Image& image = result.images.front();
  EXPECT_GT(image.coveredPixels(0.05), 40 * 40 / 10);
  EXPECT_LT(image.coveredPixels(0.05), 40 * 40);
}

TEST(VolumeRenderer, SampleAccountingIsPlausible) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(24, 24);
  renderer.setCameraCount(2);
  renderer.setSamplesAcross(64);
  const auto result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.raysTraced, 24 * 24 * 2);
  EXPECT_GT(result.samplesTaken, result.raysTraced);  // many samples/ray
  EXPECT_LT(result.samplesTaken, result.raysTraced * 80);
}

TEST(VolumeRenderer, TransparentTransferFunctionGivesEmptyImage) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(16, 16);
  renderer.setCameraCount(1);
  renderer.setColorTable(
      ColorTable({{0.0, {1, 0, 0, 0.0}}, {1.0, {1, 0, 0, 0.0}}}));
  const auto result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.images.front().coveredPixels(1e-6), 0);
}

TEST(VolumeRenderer, OpaqueTransferFunctionTerminatesEarly) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer lowOpacity;
  lowOpacity.setImageSize(24, 24);
  lowOpacity.setCameraCount(1);
  lowOpacity.setColorTable(
      ColorTable({{0.0, {1, 1, 1, 0.01}}, {1.0, {1, 1, 1, 0.01}}}));
  VolumeRenderer highOpacity;
  highOpacity.setImageSize(24, 24);
  highOpacity.setCameraCount(1);
  highOpacity.setColorTable(
      ColorTable({{0.0, {1, 1, 1, 0.95}}, {1.0, {1, 1, 1, 0.95}}}));
  const auto low = lowOpacity.run(ctx, g, "energy");
  const auto high = highOpacity.run(ctx, g, "energy");
  // Early termination: opaque volumes take far fewer samples.
  EXPECT_LT(high.samplesTaken * 3, low.samplesTaken);
}

TEST(VolumeRenderer, ProfileWorkingSetIsTheField) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(16, 16);
  renderer.setCameraCount(1);
  const auto result = renderer.run(ctx, g, "energy");
  ASSERT_EQ(result.profile.phases.size(), 1u);
  EXPECT_EQ(result.profile.phases[0].name, "ray-march");
  EXPECT_DOUBLE_EQ(result.profile.phases[0].workingSetBytes,
                   g.field("energy").sizeBytes());
  EXPECT_GT(result.profile.phases[0].flops, 0.0);
}

TEST(VolumeRenderer, ValidatesParameters) {
  util::ExecutionContext ctx;
  VolumeRenderer renderer;
  EXPECT_THROW(renderer.setImageSize(-1, 4), Error);
  EXPECT_THROW(renderer.setCameraCount(0), Error);
  EXPECT_THROW(renderer.setSamplesAcross(1), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  EXPECT_THROW(renderer.run(ctx, g, "v"), Error);
}

TEST(VolumeRenderer, MoreSamplesRefineTheImageConsistently) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  VolumeRenderer coarse;
  coarse.setImageSize(20, 20);
  coarse.setCameraCount(1);
  coarse.setSamplesAcross(32);
  VolumeRenderer fine;
  fine.setImageSize(20, 20);
  fine.setCameraCount(1);
  fine.setSamplesAcross(256);
  const Color a = coarse.run(ctx, g, "energy").images.front().average();
  const Color b = fine.run(ctx, g, "energy").images.front().average();
  // Same scene: averages agree within a loose tolerance thanks to the
  // step-size opacity correction.
  EXPECT_NEAR(a.a, b.a, 0.08);
}

// 100 x 60 cuts into full and partial tiles, several chunks per image,
// so a 4-worker pool writes one shared image from several threads.
TEST(VolumeRenderer, TiledImagesMatchAcrossPoolSizes) {
  const UniformGrid g = dataset();
  VolumeRenderer renderer;
  renderer.setImageSize(100, 60);
  renderer.setCameraCount(2);
  renderer.setKeepFirstImageOnly(false);
  const auto render = [&](unsigned workers) {
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    ctx.setBackend(exec::BackendKind::Threaded);
    return renderer.run(ctx, g, "energy");
  };
  const auto one = render(1);
  const auto four = render(4);
  EXPECT_EQ(one.samplesTaken, four.samplesTaken);
  ASSERT_EQ(one.images.size(), 2u);
  ASSERT_EQ(four.images.size(), 2u);
  for (std::size_t i = 0; i < one.images.size(); ++i) {
    for (int y = 0; y < 60; ++y) {
      for (int x = 0; x < 100; ++x) {
        const Color& a = one.images[i].at(x, y);
        const Color& b = four.images[i].at(x, y);
        ASSERT_EQ(a.r, b.r);
        ASSERT_EQ(a.g, b.g);
        ASSERT_EQ(a.b, b.b);
        ASSERT_EQ(a.a, b.a);
      }
    }
  }
}

}  // namespace
}  // namespace pviz::vis
