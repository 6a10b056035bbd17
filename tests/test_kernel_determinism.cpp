// Determinism and cross-execution equivalence of the data-parallel
// kernels.
//
// The two-pass (classify → scan → generate) rewrite of the filters must
// produce byte-identical meshes and images for every execution
// configuration — both exec backends (serial / threaded) × thread-pool
// sizes 1, 2, and the hardware default: the compaction lists are in
// ascending cell order, chunked gathers merge in chunk order, and the
// exclusive scan is exact integer arithmetic.  Every configuration is
// compared byte-for-byte against the serial backend on a one-thread
// pool.
// The scan/compaction primitives themselves are exercised on their edge
// cases (empty, single element, all zeros, totals past 2^31) against a
// serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/bvh.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/ray_tracer.h"

namespace pviz::vis {
namespace {

/// Run `f(ctx)` on an execution context over an explicit pool of
/// `workers` total participants (1 = fully serial) and an explicit exec
/// backend.  No global state is touched: the context pins the pool and
/// backend for everything `f` runs.
template <typename F>
auto withExec(unsigned workers, const exec::Backend& backend, F&& f) {
  util::ThreadPool pool(workers);
  util::ExecutionContext ctx(pool);
  ctx.setBackend(backend);
  return f(ctx);
}

/// Pool-size-only form on the default (threaded) backend.
template <typename F>
auto withPool(unsigned workers, F&& f) {
  return withExec(workers, exec::threadedBackend(), std::forward<F>(f));
}

std::vector<unsigned> poolSizes() {
  return {1u, 2u, std::max(1u, std::thread::hardware_concurrency())};
}

/// One execution configuration the determinism matrix sweeps.
struct ExecConfig {
  unsigned workers;
  const exec::Backend* backend;

  std::string label() const {
    return std::string(backend->token()) + " backend, pool " +
           std::to_string(workers);
  }
};

/// All backends × pool sizes 1/2/hw.  The reference configuration every
/// other one must match byte-for-byte is {1, serial}.
std::vector<ExecConfig> execConfigs() {
  std::vector<ExecConfig> out;
  for (unsigned workers : poolSizes()) {
    for (const exec::Backend* backend :
         {&exec::serialBackend(), &exec::threadedBackend()}) {
      out.push_back({workers, backend});
    }
  }
  return out;
}

/// Reference runner: serial backend, one-thread pool.
template <typename F>
auto serialReference(F&& f) {
  return withExec(1, exec::serialBackend(), std::forward<F>(f));
}

void expectIdentical(const TriangleMesh& a, const TriangleMesh& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.connectivity.size(), b.connectivity.size());
  ASSERT_EQ(a.pointScalars.size(), b.pointScalars.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

void expectIdentical(const TetMesh& a, const TetMesh& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

void expectIdentical(const HexSubset& a, const HexSubset& b) {
  EXPECT_EQ(a.cellIds, b.cellIds);
  EXPECT_EQ(a.cellScalars, b.cellScalars);
}

void expectIdentical(const PolylineSet& a, const PolylineSet& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  ASSERT_EQ(a.offsets, b.offsets);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].y, b.points[i].y);
    EXPECT_EQ(a.points[i].z, b.points[i].z);
  }
  EXPECT_EQ(a.pointScalars, b.pointScalars);
}

/// A grid with a custom per-point scalar built from a callable.
template <typename F>
UniformGrid fieldGrid(Id3 pointDims, F&& value) {
  UniformGrid g(pointDims, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, value(g.pointPosition(p)));
  }
  g.addField(std::move(f));
  return g;
}

// ---- exclusiveScan edge cases -----------------------------------------

std::int64_t serialScanReference(std::vector<std::int64_t>& counts) {
  std::int64_t running = 0;
  for (auto& c : counts) {
    const std::int64_t v = c;
    c = running;
    running += v;
  }
  return running;
}

TEST(ExclusiveScan, EmptyArray) {
  std::vector<std::int64_t> counts;
  util::ExecutionContext ctx;
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 0);
  EXPECT_TRUE(counts.empty());
}

TEST(ExclusiveScan, SingleElement) {
  std::vector<std::int64_t> counts{7};
  util::ExecutionContext ctx;
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 7);
  EXPECT_EQ(counts[0], 0);
}

TEST(ExclusiveScan, AllZeros) {
  std::vector<std::int64_t> counts(100000, 0);
  util::ExecutionContext ctx;
  EXPECT_EQ(util::exclusiveScan(ctx, counts), 0);
  for (std::int64_t c : counts) EXPECT_EQ(c, 0);
}

TEST(ExclusiveScan, TotalsPastTwoToTheThirtyOne) {
  // 2^20 elements of 2^13 each: total 2^33, and every element past index
  // 2^18 has an offset over 2^31 — the scan must carry exact 64-bit sums
  // on every backend and pool size.
  const std::size_t n = std::size_t{1} << 20;
  const std::vector<std::int64_t> input(n, 1 << 13);
  std::vector<std::int64_t> reference = input;
  const std::int64_t refTotal = serialScanReference(reference);
  ASSERT_EQ(refTotal, std::int64_t{1} << 33);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    std::vector<std::int64_t> counts = input;
    const std::int64_t total =
        withExec(cfg.workers, *cfg.backend, [&](util::ExecutionContext& ctx) {
          return util::exclusiveScan(ctx, counts);
        });
    EXPECT_EQ(total, refTotal);
    EXPECT_EQ(counts, reference);
  }
}

TEST(ExclusiveScan, MatchesSerialReferenceOnEveryConfig) {
  // Irregular counts long enough to take the three-phase parallel path.
  std::vector<std::int64_t> input(200001);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>((i * 2654435761u) % 7);
  }
  std::vector<std::int64_t> reference = input;
  const std::int64_t refTotal = serialScanReference(reference);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    std::vector<std::int64_t> counts = input;
    const std::int64_t total =
        withExec(cfg.workers, *cfg.backend, [&](util::ExecutionContext& ctx) {
          return util::exclusiveScan(ctx, counts);
        });
    EXPECT_EQ(total, refTotal);
    EXPECT_EQ(counts, reference);
  }
}

TEST(ParallelSelect, AscendingAndConfigInvariant) {
  const std::int64_t n = 100000;
  auto pred = [](std::int64_t i) { return i % 3 == 0 || i % 7 == 0; };
  std::vector<std::int64_t> reference;
  for (std::int64_t i = 0; i < n; ++i) {
    if (pred(i)) reference.push_back(i);
  }
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const auto selected =
        withExec(cfg.workers, *cfg.backend, [&](util::ExecutionContext& ctx) {
          return util::parallelSelect(ctx, n, pred, /*grain=*/1024);
        });
    EXPECT_EQ(selected, reference);
  }
}

// ---- filters: byte-identical output across every execution config ----

TEST(KernelDeterminism, ContourAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  util::ExecutionContext setup;
  ContourFilter filter;
  filter.setIsovalues(
      ContourFilter::uniformIsovalues(setup, g.field("energy"), 3));
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").surface;
  };
  const TriangleMesh reference = serialReference(run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, ThresholdAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ThresholdFilter filter;
  filter.setRange(1.2, 2.2);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").kept;
  };
  const HexSubset reference = serialReference(run);
  EXPECT_GT(reference.numCells(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, ThresholdCellFieldAcrossConfigs) {
  // Cell-associated fields take the flat (non-row-sweep) classify loop.
  UniformGrid g = sim::makeCloverField(16);
  Field f = Field::zeros("cellv", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) {
    f.setScalar(c, static_cast<double>(c % 97) / 97.0);
  }
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(0.25, 0.75);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "cellv").kept;
  };
  const HexSubset reference = serialReference(run);
  EXPECT_GT(reference.numCells(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, ClipSphereAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").clipped;
  };
  const auto reference = serialReference(run);
  EXPECT_GT(reference.cellsCut, 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const auto clipped = withExec(cfg.workers, *cfg.backend, run);
    expectIdentical(clipped.cutPieces, reference.cutPieces);
    expectIdentical(clipped.wholeCells, reference.wholeCells);
    EXPECT_EQ(clipped.cellsIn, reference.cellsIn);
    EXPECT_EQ(clipped.cellsCut, reference.cellsCut);
    EXPECT_EQ(clipped.cellsOut, reference.cellsOut);
  }
}

TEST(KernelDeterminism, IsovolumeAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  IsovolumeFilter filter;
  filter.setRange(1.3, 2.1);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy");
  };
  const auto ref = serialReference(run);
  EXPECT_GT(ref.cutPieces.numTets(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const auto result = withExec(cfg.workers, *cfg.backend, run);
    expectIdentical(result.wholeCells, ref.wholeCells);
    expectIdentical(result.cutPieces, ref.cutPieces);
  }
}

TEST(KernelDeterminism, ExternalFacesAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  auto run = [&](util::ExecutionContext& ctx) {
    return extractExternalFaces(ctx, g, "energy").mesh;
  };
  const TriangleMesh reference = serialReference(run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, RayTracedImageAcrossConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  RayTracer tracer;
  tracer.setImageSize(48, 48);
  tracer.setCameraCount(1);
  auto render = [&](util::ExecutionContext& ctx) {
    auto result = tracer.run(ctx, g, "energy");
    return result.images.at(0);
  };
  const Image reference = serialReference(render);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const Image image = withExec(cfg.workers, *cfg.backend, render);
    ASSERT_EQ(image.width(), reference.width());
    ASSERT_EQ(image.height(), reference.height());
    for (int y = 0; y < image.height(); ++y) {
      for (int x = 0; x < image.width(); ++x) {
        EXPECT_EQ(image.at(x, y).r, reference.at(x, y).r);
        EXPECT_EQ(image.at(x, y).g, reference.at(x, y).g);
        EXPECT_EQ(image.at(x, y).b, reference.at(x, y).b);
        EXPECT_EQ(image.at(x, y).a, reference.at(x, y).a);
      }
    }
  }
}

// ---- awkward grid shapes ----------------------------------------------

TEST(KernelDeterminism, DegenerateOneByOneByNGrid) {
  // A 1×1×N column of cells: every row has length 1, so the classify
  // sweep runs its one-lane tail on every cell.
  const UniformGrid g = fieldGrid({2, 2, 65}, [](const Vec3& p) {
    return p.z - 31.5;
  });
  ContourFilter filter;
  filter.setIsovalues({0.0});
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "v").surface;
  };
  const TriangleMesh reference = serialReference(run);
  EXPECT_GT(reference.numTriangles(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, DegenerateGridEveryFilterEveryConfig) {
  // The 1×1×N column through threshold, external faces, and clip — the
  // other row-swept kernels, at rowLen == 1, where external faces' ±i
  // end-cell patch-up lands both row ends on the same cell.
  const UniformGrid g = fieldGrid({2, 2, 65}, [](const Vec3& p) {
    return p.z - 31.5;
  });
  ThresholdFilter threshold;
  threshold.setRange(-20.0, 20.0);
  ClipSphereFilter clip;
  clip.setSphere(g.bounds().center(), 10.0);
  auto run = [&](util::ExecutionContext& ctx) {
    return std::make_tuple(threshold.run(ctx, g, "v").kept,
                           extractExternalFaces(ctx, g, "v").mesh,
                           clip.run(ctx, g, "v").clipped.wholeCells);
  };
  const auto reference = serialReference(run);
  EXPECT_GT(std::get<0>(reference).numCells(), 0);
  EXPECT_GT(std::get<1>(reference).numTriangles(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const auto result = withExec(cfg.workers, *cfg.backend, run);
    expectIdentical(std::get<0>(result), std::get<0>(reference));
    expectIdentical(std::get<1>(result), std::get<1>(reference));
    expectIdentical(std::get<2>(result), std::get<2>(reference));
  }
}

TEST(KernelDeterminism, SingleCrossedCell) {
  // One point above the isovalue in a corner: exactly one cell crosses.
  UniformGrid g(UniformGrid({9, 9, 9}, {0, 0, 0}, {1, 1, 1}));
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  f.setScalar(0, 10.0);
  g.addField(std::move(f));
  ContourFilter filter;
  filter.setIsovalues({5.0});
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "v").surface;
  };
  const TriangleMesh reference = serialReference(run);
  EXPECT_EQ(reference.numTriangles(), 1);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, ZeroCrossedCells) {
  const UniformGrid g =
      fieldGrid({9, 9, 9}, [](const Vec3&) { return 1.0; });
  ContourFilter filter;
  filter.setIsovalues({5.0});
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    const TriangleMesh mesh =
        withExec(cfg.workers, *cfg.backend, [&](util::ExecutionContext& ctx) {
          return filter.run(ctx, g, "v").surface;
        });
    EXPECT_EQ(mesh.numTriangles(), 0);
    EXPECT_TRUE(mesh.points.empty());
  }
}

// ---- BVH: parallel build must reproduce the serial tree ---------------

/// A grid with a custom per-point velocity built from a callable.
template <typename F>
UniformGrid velocityGrid(Id3 pointDims, F&& velocity) {
  UniformGrid g(pointDims, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  Field f = Field::zeros("velocity", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setVec3(p, velocity(g.pointPosition(p)));
  }
  g.addField(std::move(f));
  return g;
}

TEST(KernelDeterminism, AdvectionStreamlineAcrossConfigs) {
  // Every backend × pool size byte-identical to the serial reference.
  const UniformGrid g = sim::makeCloverField(16);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(300);
  filter.setMaxSteps(150);
  filter.setStepLength(0.01);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity").streamlines;
  };
  const PolylineSet reference = serialReference(run);
  EXPECT_GT(reference.numLines(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionUnevenSplitInvariant) {
  // 257 seeds cut unevenly over three slots: each slot's span and its
  // segment pool must still reproduce the serial reference bit for bit.
  const UniformGrid g = sim::makeCloverField(16);
  auto run = [&](util::ExecutionContext& ctx) {
    ParticleAdvectionFilter filter;
    filter.setSeedCount(257);
    filter.setMaxSteps(90);
    filter.setStepLength(0.01);
    return filter.run(ctx, g, "velocity").streamlines;
  };
  const PolylineSet reference = serialReference(run);
  EXPECT_GT(reference.numLines(), 0);
  expectIdentical(withPool(3, run), reference);
}

TEST(KernelDeterminism, AdvectionPathlineAcrossConfigs) {
  // Pathlines sample two time steps per stage; the second field is a
  // genuinely different flow so the blend actually varies in time.
  UniformGrid g = sim::makeCloverField(16);
  Field next = Field::zeros("velocity_next", Association::Points, 3,
                            g.numPoints());
  const Field& now = g.field("velocity");
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 v = now.vec3(p);
    next.setVec3(p, {-v.y, v.x, v.z * 0.5});
  }
  g.addField(std::move(next));
  ParticleAdvectionFilter filter;
  filter.setSeedCount(200);
  filter.setMaxSteps(120);
  filter.setStepLength(0.02);  // 50 steps span the t ∈ [0,1] window
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity", "velocity_next").streamlines;
  };
  const PolylineSet reference = serialReference(run);
  EXPECT_GT(reference.numLines(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionDegenerateColumnGrid) {
  // A 1×1×N column: particles ride a +z flow down a single-cell-wide
  // domain, so nearly every trilinear sample sits on cell boundaries
  // and most particles run off the far end at different step counts —
  // maximal compaction churn.
  const UniformGrid g = velocityGrid({2, 2, 65}, [](const Vec3& p) {
    return Vec3{0.0, 0.0, 1.0 + 0.1 * p.z};
  });
  ParticleAdvectionFilter filter;
  filter.setSeedCount(100);
  filter.setMaxSteps(400);
  filter.setStepLength(0.1);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity").streamlines;
  };
  const PolylineSet reference = serialReference(run);
  EXPECT_GT(reference.numLines(), 0);
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run), reference);
  }
}

TEST(KernelDeterminism, AdvectionZeroMagnitudeField) {
  // A zero field advances nothing: every particle survives all steps in
  // place.  Exercises the no-termination path (no compaction ever
  // fires) and pins the exact expected geometry.
  const UniformGrid g =
      velocityGrid({5, 5, 5}, [](const Vec3&) { return Vec3{}; });
  ParticleAdvectionFilter filter;
  filter.setSeedCount(40);
  filter.setMaxSteps(30);
  filter.setStepLength(0.01);
  auto run = [&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "velocity");
  };
  const ParticleAdvectionFilter::Result reference = serialReference(run);
  EXPECT_EQ(reference.terminated, 0);
  EXPECT_EQ(reference.totalSteps, 40 * 30);
  ASSERT_EQ(reference.streamlines.numLines(), 40);
  for (Id line = 0; line < 40; ++line) {
    ASSERT_EQ(reference.streamlines.lineSize(line), 31);
  }
  for (const ExecConfig& cfg : execConfigs()) {
    SCOPED_TRACE(cfg.label());
    expectIdentical(withExec(cfg.workers, *cfg.backend, run).streamlines,
                    reference.streamlines);
  }
}

TEST(KernelDeterminism, BvhParallelBuildMatchesSerial) {
  // 32^3 external faces → 12288 triangles, past the parallel-build
  // threshold, so the skeleton-split + subtree-task path actually runs
  // when the pool has more than one participant.
  const UniformGrid g = sim::makeCloverField(32);
  util::ExecutionContext reference;
  const TriangleMesh mesh = extractExternalFaces(reference, g, "energy").mesh;
  const Bvh serial(reference, mesh, /*maxLeafSize=*/4,
                   /*parallelBuild=*/false);
  for (unsigned workers : poolSizes()) {
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    const Bvh parallel(ctx, mesh, /*maxLeafSize=*/4, /*parallelBuild=*/true);

    EXPECT_EQ(parallel.triangleOrder(), serial.triangleOrder())
        << "pool size " << workers;
    ASSERT_EQ(parallel.nodes().size(), serial.nodes().size())
        << "pool size " << workers;
    for (std::size_t i = 0; i < serial.nodes().size(); ++i) {
      const Bvh::Node& a = parallel.nodes()[i];
      const Bvh::Node& b = serial.nodes()[i];
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
      EXPECT_EQ(a.first, b.first);
      EXPECT_EQ(a.count, b.count);
      EXPECT_EQ(a.box.lo.x, b.box.lo.x);
      EXPECT_EQ(a.box.lo.y, b.box.lo.y);
      EXPECT_EQ(a.box.lo.z, b.box.lo.z);
      EXPECT_EQ(a.box.hi.x, b.box.hi.x);
      EXPECT_EQ(a.box.hi.y, b.box.hi.y);
      EXPECT_EQ(a.box.hi.z, b.box.hi.z);
    }
  }
}

}  // namespace
}  // namespace pviz::vis
