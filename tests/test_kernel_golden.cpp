// Golden output digests for contour, volume rendering, threshold and
// external faces.
//
// Pins FNV-1a-64 over the raw output bytes on the CloverLeaf proxy field
// at the study's parameters: contour with 10 uniform isovalues of the
// energy range (points, then pointScalars, then connectivity), and the
// volume renderer with 4 orbit cameras at 128 x 128, every image kept,
// at the default samples-across (every image's pixels, then
// samplesTaken).  The values were recorded before contour moved to
// per-pass active-cell scans and the ray-march dropped its per-sample
// pow; both rewrites must reproduce them bit for bit.
//
// Threshold keeps the study band [lo + 0.55 span, lo + 0.95 span] of the
// energy range (cellIds, then cellScalars); external faces carries energy
// (points, then pointScalars, then connectivity).  Both were recorded
// while each kernel still had a scalar and a SIMD-shaped classify loop,
// with every backend and pool size agreeing; they are the reference for
// the one loop that remains.
//
// n = 75 gives 75-cell rows, so every row-swept classify runs one full
// 64-lane block plus an 11-cell tail; the smaller sizes run the tail
// alone.
#include <gtest/gtest.h>

#include <string>

#include "golden_digest.h"
#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/filters/contour.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz::vis {
namespace {

using pviz::testing::Fnv1a64;

std::string contourDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                          Id& triangles) {
  ContourFilter filter;
  filter.setIsovalues(ContourFilter::uniformIsovalues(g.field("energy"), 10));
  const TriangleMesh surface = filter.run(ctx, g, "energy").surface;
  triangles = surface.numTriangles();
  Fnv1a64 h;
  h.add(surface.points);
  h.add(surface.pointScalars);
  h.add(surface.connectivity);
  return h.hex();
}

std::string volumeDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                         std::int64_t& samples) {
  VolumeRenderer renderer;
  renderer.setCameraCount(4);
  renderer.setImageSize(128, 128);
  renderer.setKeepFirstImageOnly(false);
  const VolumeRenderer::Result result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.images.size(), 4u);
  Fnv1a64 h;
  for (const Image& image : result.images) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) h.addValue(image.at(x, y));
    }
  }
  h.addValue(result.samplesTaken);
  samples = result.samplesTaken;
  return h.hex();
}

std::string thresholdDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                            Id& kept) {
  const auto [lo, hi] = g.field("energy").range();
  const double span = hi - lo;
  ThresholdFilter filter;
  filter.setRange(lo + 0.55 * span, lo + 0.95 * span);
  const HexSubset subset = filter.run(ctx, g, "energy").kept;
  kept = static_cast<Id>(subset.cellIds.size());
  Fnv1a64 h;
  h.add(subset.cellIds);
  h.add(subset.cellScalars);
  return h.hex();
}

std::string facesDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                        std::int64_t& faces) {
  const ExternalFacesResult result = extractExternalFaces(ctx, g, "energy");
  faces = result.facesFound;
  Fnv1a64 h;
  h.add(result.mesh.points);
  h.add(result.mesh.pointScalars);
  h.add(result.mesh.connectivity);
  return h.hex();
}

struct Golden {
  Id cells;
  const char* contour;
  Id triangles;
  const char* volume;
  std::int64_t samples;
};

class KernelGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(KernelGolden, DigestsMatchOnEveryPoolSize) {
  const Golden& golden = GetParam();
  const UniformGrid g = sim::makeCloverField(golden.cells);
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    ctx.setBackend(exec::threadedBackend());
    Id triangles = 0;
    EXPECT_EQ(contourDigest(ctx, g, triangles), golden.contour);
    EXPECT_EQ(triangles, golden.triangles);
    std::int64_t samples = 0;
    EXPECT_EQ(volumeDigest(ctx, g, samples), golden.volume);
    EXPECT_EQ(samples, golden.samples);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, KernelGolden,
    ::testing::Values(Golden{32, "887229990df14e31", 40323,
                             "630a4845caafb838", 544764},
                      Golden{57, "3485330699af801e", 127623,
                             "8336a1e24f388119", 544818},
                      Golden{75, "916e7014634d95ad", 221079,
                             "95ba0fbd8885112d", 544814}),
    [](const ::testing::TestParamInfo<Golden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

struct SelectGolden {
  Id cells;
  const char* threshold;
  Id kept;
  const char* faces;
  std::int64_t facesFound;
};

class SelectGoldenTest : public ::testing::TestWithParam<SelectGolden> {};

TEST_P(SelectGoldenTest, DigestsMatchOnEveryBackendAndPoolSize) {
  const SelectGolden& golden = GetParam();
  const UniformGrid g = sim::makeCloverField(golden.cells);
  for (const exec::Backend* backend :
       {&exec::serialBackend(), &exec::threadedBackend()}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(std::string(backend->token()) +
                   " workers=" + std::to_string(workers));
      util::ThreadPool pool(workers);
      util::ExecutionContext ctx(pool);
      ctx.setBackend(*backend);
      Id kept = 0;
      EXPECT_EQ(thresholdDigest(ctx, g, kept), golden.threshold);
      EXPECT_EQ(kept, golden.kept);
      std::int64_t faces = 0;
      EXPECT_EQ(facesDigest(ctx, g, faces), golden.faces);
      EXPECT_EQ(faces, golden.facesFound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, SelectGoldenTest,
    ::testing::Values(SelectGolden{32, "ba6631196452245a", 12438,
                                   "d3db1f5fb20a667c", 6144},
                      SelectGolden{57, "45f647e80ba02a90", 70179,
                                   "36514ab199a3af34", 19494},
                      SelectGolden{75, "3dad7dca1b5ccaa2", 159823,
                                   "afc2500ab4f4e284", 33750}),
    [](const ::testing::TestParamInfo<SelectGolden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

}  // namespace
}  // namespace pviz::vis
