// Ray tracing renderer tests.
#include <gtest/gtest.h>

#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/rendering/ray_tracer.h"

namespace pviz::vis {
namespace {

UniformGrid dataset() { return sim::makeCloverField(12); }

TEST(RayTracer, RendersSomethingFromEveryOrbitCamera) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(48, 48);
  tracer.setCameraCount(4);
  tracer.setKeepFirstImageOnly(false);
  const auto result = tracer.run(ctx, g, "energy");
  ASSERT_EQ(result.images.size(), 4u);
  for (const auto& image : result.images) {
    // The dataset fills a good chunk of the frame from every angle.
    EXPECT_GT(image.coveredPixels(), 48 * 48 / 8);
    EXPECT_LT(image.coveredPixels(), 48 * 48);  // background visible
  }
}

TEST(RayTracer, RayAndHitAccounting) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(32, 24);
  tracer.setCameraCount(3);
  const auto result = tracer.run(ctx, g, "energy");
  EXPECT_EQ(result.raysTraced, 32 * 24 * 3);
  EXPECT_GT(result.raysHit, 0);
  EXPECT_LT(result.raysHit, result.raysTraced);
}

TEST(RayTracer, TriangleCountMatchesExternalFaces) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();  // 12^3 cells
  RayTracer tracer;
  tracer.setImageSize(8, 8);
  tracer.setCameraCount(1);
  const auto result = tracer.run(ctx, g, "energy");
  EXPECT_EQ(result.trianglesRendered, 2 * 6 * 12 * 12);
}

TEST(RayTracer, KeepFirstImageOnlyBoundsMemory) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(16, 16);
  tracer.setCameraCount(5);
  const auto result = tracer.run(ctx, g, "energy");  // default keep-first
  EXPECT_EQ(result.images.size(), 1u);
  EXPECT_EQ(result.raysTraced, 16 * 16 * 5);  // all cameras still traced
}

TEST(RayTracer, HitPixelsAreOpaqueMissesTransparent) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(40, 40);
  tracer.setCameraCount(1);
  const auto result = tracer.run(ctx, g, "energy");
  const Image& image = result.images.front();
  std::int64_t opaque = 0;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const Color& c = image.at(x, y);
      ASSERT_TRUE(c.a == 0.0 || c.a == 1.0);
      if (c.a == 1.0) ++opaque;
    }
  }
  EXPECT_EQ(opaque, result.raysHit);
}

TEST(RayTracer, ProfileHasFourPhasesWithRealCounts) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(24, 24);
  tracer.setCameraCount(2);
  const auto result = tracer.run(ctx, g, "energy");
  ASSERT_EQ(result.profile.phases.size(), 3u);
  EXPECT_EQ(result.profile.phases[0].name, "gather-external-faces");
  EXPECT_EQ(result.profile.phases[1].name, "bvh-build");
  EXPECT_EQ(result.profile.phases[2].name, "trace");
  for (const auto& phase : result.profile.phases) {
    EXPECT_GT(phase.instructions(), 0.0) << phase.name;
  }
  EXPECT_EQ(result.profile.elements, g.numCells());
}

TEST(RayTracer, ValidatesParameters) {
  RayTracer tracer;
  EXPECT_THROW(tracer.setImageSize(0, 5), Error);
  EXPECT_THROW(tracer.setCameraCount(0), Error);
}

TEST(RayTracer, DeterministicImages) {
  util::ExecutionContext ctx;
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(20, 20);
  tracer.setCameraCount(1);
  const auto a = tracer.run(ctx, g, "energy");
  const auto b = tracer.run(ctx, g, "energy");
  const Color ca = a.images.front().average();
  const Color cb = b.images.front().average();
  EXPECT_EQ(ca.r, cb.r);
  EXPECT_EQ(ca.g, cb.g);
  EXPECT_EQ(a.raysHit, b.raysHit);
}

// 100 x 60 cuts into full and partial tiles, several chunks per image,
// so a 4-worker pool writes one shared image from several threads.
TEST(RayTracer, TiledImagesMatchAcrossPoolSizes) {
  const UniformGrid g = dataset();
  RayTracer tracer;
  tracer.setImageSize(100, 60);
  tracer.setCameraCount(2);
  tracer.setKeepFirstImageOnly(false);
  const auto render = [&](unsigned workers) {
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    ctx.setBackend(exec::BackendKind::Threaded);
    return tracer.run(ctx, g, "energy");
  };
  const auto one = render(1);
  const auto four = render(4);
  EXPECT_EQ(one.raysHit, four.raysHit);
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
