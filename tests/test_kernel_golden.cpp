// Golden output digests for contour, volume rendering, ray tracing,
// threshold and external faces.
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
// The dataset, hydro and advection digests pin the inputs every kernel
// above reads and the flow filter's output: makeCloverField's energy and
// velocity bytes; a 5-step CloverLeaf run's density, energy and exported
// velocity plus every field of its profile; the streamline PolylineSet
// at the study defaults (1000 seeds, 1000 steps of 0.001); and one
// pathline window.  They were recorded while advection still had a
// work-stealing schedule next to the static loop and while the dataset
// and the proxy still ran on the process-global pool, with both
// schedules, both backends and every pool size agreeing.
//
// The ray-cast digests pin both image-space kernels at 4 orbit cameras
// with every image kept: the ray tracer at 128 x 128 and 100 x 60
// (every image's pixels, then raysHit and trianglesRendered, then the
// trace phase's flops, intOps, memOps, bytesReused and
// irregularAccesses, which carry the BVH traversal counters), and the
// volume renderer at 100 x 60 (pixels, then samplesTaken).  Neither
// side of 100 x 60 is a multiple of the 16-pixel tile edge, so partial
// tiles on the right and bottom edges are covered.  They were recorded
// while both kernels still swept row-major pixel chunks through
// out-of-line samplers.
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
#include "viz/filters/particle_advection.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz::vis {
namespace {

using pviz::testing::Fnv1a64;

std::string contourDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                          Id& triangles) {
  ContourFilter filter;
  filter.setIsovalues(
      ContourFilter::uniformIsovalues(ctx, g.field("energy"), 10));
  const TriangleMesh surface = filter.run(ctx, g, "energy").surface;
  triangles = surface.numTriangles();
  Fnv1a64 h;
  h.add(surface.points);
  h.add(surface.pointScalars);
  h.add(surface.connectivity);
  return h.hex();
}

template <typename Result>
void addPixels(Fnv1a64& h, const Result& result) {
  for (const Image& image : result.images) {
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) h.addValue(image.at(x, y));
    }
  }
}

std::string volumeDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                         std::int64_t& samples, int width = 128,
                         int height = 128) {
  VolumeRenderer renderer;
  renderer.setCameraCount(4);
  renderer.setImageSize(width, height);
  renderer.setKeepFirstImageOnly(false);
  const VolumeRenderer::Result result = renderer.run(ctx, g, "energy");
  EXPECT_EQ(result.images.size(), 4u);
  Fnv1a64 h;
  addPixels(h, result);
  h.addValue(result.samplesTaken);
  samples = result.samplesTaken;
  return h.hex();
}

std::string rayTraceDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                           int width, int height, std::int64_t& hits) {
  RayTracer tracer;
  tracer.setCameraCount(4);
  tracer.setImageSize(width, height);
  tracer.setKeepFirstImageOnly(false);
  const RayTracer::Result result = tracer.run(ctx, g, "energy");
  EXPECT_EQ(result.images.size(), 4u);
  Fnv1a64 h;
  addPixels(h, result);
  h.addValue(result.raysHit);
  h.addValue(result.trianglesRendered);
  const WorkProfile& trace = result.profile.phases.back();
  EXPECT_EQ(trace.name, "trace");
  for (double v : {trace.flops, trace.intOps, trace.memOps,
                   trace.bytesReused, trace.irregularAccesses}) {
    h.addValue(v);
  }
  hits = result.raysHit;
  return h.hex();
}

std::string thresholdDigest(util::ExecutionContext& ctx, const UniformGrid& g,
                            Id& kept) {
  const auto [lo, hi] = g.field("energy").range(ctx);
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
  util::ExecutionContext setup;
  const UniformGrid g = sim::makeCloverField(setup, golden.cells);
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
  util::ExecutionContext setup;
  const UniformGrid g = sim::makeCloverField(setup, golden.cells);
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

std::string datasetDigest(const UniformGrid& g) {
  Fnv1a64 h;
  h.add(g.field("energy").data());
  h.add(g.field("velocity").data());
  return h.hex();
}

std::string profileDigest(const KernelProfile& profile) {
  Fnv1a64 h;
  h.addBytes(profile.kernel.data(), profile.kernel.size());
  h.addValue(profile.elements);
  for (const WorkProfile& phase : profile.phases) {
    h.addBytes(phase.name.data(), phase.name.size());
    for (double v : {phase.flops, phase.intOps, phase.memOps,
                     phase.bytesStreamed, phase.bytesReused,
                     phase.irregularAccesses, phase.workingSetBytes,
                     phase.parallelFraction, phase.overlap}) {
      h.addValue(v);
    }
  }
  return h.hex();
}

std::string linesDigest(const ParticleAdvectionFilter::Result& result) {
  Fnv1a64 h;
  h.add(result.streamlines.points);
  h.add(result.streamlines.pointScalars);
  h.add(result.streamlines.offsets);
  h.addValue(result.totalSteps);
  h.addValue(result.terminated);
  h.addValue(result.completed);
  return h.hex();
}

// Run `body(ctx)` on a context per backend and pool size.
template <typename Body>
void onEveryContext(Body&& body) {
  for (const exec::Backend* backend :
       {&exec::serialBackend(), &exec::threadedBackend()}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(backend->token()) +
                   " workers=" + std::to_string(workers));
      util::ThreadPool pool(workers);
      util::ExecutionContext ctx(pool);
      ctx.setBackend(*backend);
      body(ctx);
    }
  }
}

struct FlowGolden {
  Id cells;
  const char* dataset;
  const char* streamlines;
};

class FlowGoldenTest : public ::testing::TestWithParam<FlowGolden> {};

TEST_P(FlowGoldenTest, DatasetAndStreamlinesMatchOnEveryBackend) {
  const FlowGolden& golden = GetParam();
  onEveryContext([&](util::ExecutionContext& ctx) {
    const UniformGrid g = sim::makeCloverField(ctx, golden.cells);
    EXPECT_EQ(datasetDigest(g), golden.dataset);
    if (golden.streamlines == nullptr) return;
    EXPECT_EQ(linesDigest(ParticleAdvectionFilter().run(ctx, g, "velocity")),
              golden.streamlines);
  });
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, FlowGoldenTest,
    ::testing::Values(FlowGolden{32, "75c6220a164b3b92", "de52ce54a03f3bbc"},
                      FlowGolden{57, "8475d9e915291e0e", "c597e057abc77cef"},
                      FlowGolden{75, "0bbcb37a464dfb4b", nullptr}),
    [](const ::testing::TestParamInfo<FlowGolden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

TEST(FlowGolden, PathlineWindowMatchesOnEveryBackend) {
  util::ExecutionContext setup;
  UniformGrid g = sim::makeCloverField(setup, 32);
  g.addField(Field("velocity_prev", Association::Points, 3,
                   sim::makeCloverField(setup, 32, 0.45)
                       .field("velocity")
                       .data()));
  onEveryContext([&](util::ExecutionContext& ctx) {
    ParticleAdvectionFilter filter;
    filter.setStepLength(0.002);  // t = 1 at step 500 of 1000
    const ParticleAdvectionFilter::Result result =
        filter.run(ctx, g, "velocity_prev", "velocity");
    EXPECT_GT(result.completed, 0);
    EXPECT_EQ(linesDigest(result), "f5b2b6bf17f9299b");
  });
}

struct RayCastGolden {
  Id cells;
  const char* trace128;
  std::int64_t hits128;
  const char* trace100x60;
  std::int64_t hits100x60;
  const char* volume100x60;
  std::int64_t samples100x60;
};

class RayTraceGoldenTest : public ::testing::TestWithParam<RayCastGolden> {};

TEST_P(RayTraceGoldenTest, DigestsMatchOnEveryBackendAndPoolSize) {
  const RayCastGolden& golden = GetParam();
  util::ExecutionContext setup;
  const UniformGrid g = sim::makeCloverField(setup, golden.cells);
  onEveryContext([&](util::ExecutionContext& ctx) {
    std::int64_t count = 0;
    EXPECT_EQ(rayTraceDigest(ctx, g, 128, 128, count), golden.trace128);
    EXPECT_EQ(count, golden.hits128);
    EXPECT_EQ(rayTraceDigest(ctx, g, 100, 60, count), golden.trace100x60);
    EXPECT_EQ(count, golden.hits100x60);
    EXPECT_EQ(volumeDigest(ctx, g, count, 100, 60), golden.volume100x60);
    EXPECT_EQ(count, golden.samples100x60);
  });
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, RayTraceGoldenTest,
    ::testing::Values(
        RayCastGolden{32, "b8e9b47f1df8b1f3", 10216, "5dad7cd702ae44bd", 2216,
                      "32c3faf3647b0f94", 119548},
        RayCastGolden{57, "f3fece94991b9784", 10216, "14173b8856374c9d", 2216,
                      "26985b23cd6c15d2", 119568},
        RayCastGolden{75, "caeb862fee1b767e", 10216, "5d78c1ae1f7b4f82", 2216,
                      "c03b50c7902d0cf2", 119574}),
    [](const ::testing::TestParamInfo<RayCastGolden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

// A keep-first-only run stores one image, equal to the keep-all run's
// first, and counts exactly the same samples and hits: the cameras it
// does not keep still march or trace every ray.
TEST(RayCastGolden, KeepFirstOnlyMatchesTheKeepAllRunsFirstImage) {
  util::ExecutionContext setup;
  const UniformGrid g = sim::makeCloverField(setup, 32);
  const auto samePixels = [](const Image& a, const Image& b) {
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    Fnv1a64 ha, hb;
    for (int y = 0; y < a.height(); ++y) {
      for (int x = 0; x < a.width(); ++x) {
        ha.addValue(a.at(x, y));
        hb.addValue(b.at(x, y));
      }
    }
    EXPECT_EQ(ha.hex(), hb.hex());
  };
  onEveryContext([&](util::ExecutionContext& ctx) {
    VolumeRenderer renderer;
    renderer.setCameraCount(3);
    renderer.setImageSize(100, 60);
    renderer.setKeepFirstImageOnly(false);
    const VolumeRenderer::Result all = renderer.run(ctx, g, "energy");
    renderer.setKeepFirstImageOnly(true);
    const VolumeRenderer::Result first = renderer.run(ctx, g, "energy");
    ASSERT_EQ(all.images.size(), 3u);
    ASSERT_EQ(first.images.size(), 1u);
    samePixels(first.images[0], all.images[0]);
    EXPECT_EQ(first.samplesTaken, all.samplesTaken);
    EXPECT_EQ(first.raysTraced, all.raysTraced);

    RayTracer tracer;
    tracer.setCameraCount(3);
    tracer.setImageSize(100, 60);
    tracer.setKeepFirstImageOnly(false);
    const RayTracer::Result allTraced = tracer.run(ctx, g, "energy");
    tracer.setKeepFirstImageOnly(true);
    const RayTracer::Result firstTraced = tracer.run(ctx, g, "energy");
    ASSERT_EQ(allTraced.images.size(), 3u);
    ASSERT_EQ(firstTraced.images.size(), 1u);
    samePixels(firstTraced.images[0], allTraced.images[0]);
    EXPECT_EQ(firstTraced.raysHit, allTraced.raysHit);
    EXPECT_EQ(firstTraced.raysTraced, allTraced.raysTraced);
  });
}

struct HydroGolden {
  Id cells;
  const char* fields;
  const char* profile;
};

class HydroGoldenTest : public ::testing::TestWithParam<HydroGolden> {};

// The profile digest was recorded from the profile the proxy used to
// accumulate while stepping; hydroProfile writes the same one down.
TEST_P(HydroGoldenTest, FiveStepRunMatchesOnEveryBackend) {
  const HydroGolden& golden = GetParam();
  onEveryContext([&](util::ExecutionContext& ctx) {
    sim::CloverLeaf clover(ctx, golden.cells);
    clover.run(ctx, 5);
    Fnv1a64 h;
    h.add(clover.density());
    h.add(clover.energy());
    h.add(clover.exportForViz(ctx).field("velocity").data());
    EXPECT_EQ(h.hex(), golden.fields);
  });
  EXPECT_EQ(profileDigest(sim::hydroProfile(golden.cells, 5)), golden.profile);
}

INSTANTIATE_TEST_SUITE_P(
    CloverLeaf, HydroGoldenTest,
    ::testing::Values(HydroGolden{12, "999c79d76f7cc10b", "1b03d3aee2b8b64c"},
                      HydroGolden{16, "66f8607bfd3705da", "e1ed6cf234db2936"}),
    [](const ::testing::TestParamInfo<HydroGolden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

}  // namespace
}  // namespace pviz::vis
