// Multi-block golden determinism suite.
//
// The contract under test: every variable-output filter produces
// BIT-IDENTICAL results whether it runs on the global grid or on a
// k-slab decomposition — for every block count, ghost depth, execution
// backend, and pool size.  The reference for every comparison is the
// single-grid run on the serial backend with a one-thread pool, the
// same reference test_kernel_determinism pins the backends against, so
// the two suites compose: any (blocks, ghost, backend, pool) cell
// equals the one canonical output.
//
// Also pinned here: the ghost exchange is functionally load-bearing
// (partition fills only exclusively-owned planes, so skipping the
// exchange is an error, not a slow path), stitchGlobal reproduces the
// partitioned grid bitwise, domain point sampling matches the global
// grid sample bitwise, and core::runAlgorithm surfaces the
// ghost-exchange / block-stitch phases in the profile when blockCount
// asks for a decomposition.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/algorithms.h"
#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/dataset/multi_block.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/domain.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"

namespace pviz::vis {
namespace {

template <typename F>
auto withExec(unsigned workers, const exec::Backend& backend, F&& f) {
  util::ThreadPool pool(workers);
  util::ExecutionContext ctx(pool);
  ctx.setBackend(backend);
  return f(ctx);
}

struct ExecConfig {
  unsigned workers;
  const exec::Backend* backend;

  std::string label() const {
    return std::string(backend->token()) + " backend, pool " +
           std::to_string(workers);
  }
};

std::vector<unsigned> poolSizes() {
  return {1u, 2u, std::max(1u, std::thread::hardware_concurrency())};
}

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

/// Reference runner: serial backend, one-thread pool, single grid.
template <typename F>
auto serialReference(F&& f) {
  return withExec(1, exec::serialBackend(), std::forward<F>(f));
}

/// The decomposition matrix the golden tests sweep.
const vis::Id kBlockCounts[] = {1, 2, 4, 8};
const vis::Id kGhostDepths[] = {1, 2};

std::string domainLabel(Id blocks, Id ghost) {
  return "blocks " + std::to_string(blocks) + ", ghost " +
         std::to_string(ghost);
}

/// Partition + exchange + run `f(ctx, domain)` under one exec config.
template <typename F>
auto withDomain(const ExecConfig& cfg, const UniformGrid& g, Id blocks,
                Id ghost, F&& f) {
  return withExec(cfg.workers, *cfg.backend, [&](util::ExecutionContext& ctx) {
    MultiBlockGrid domain = MultiBlockGrid::partition(g, blocks, ghost);
    domain.exchangeGhosts(ctx);
    return f(ctx, domain);
  });
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

void expectIdenticalGrids(const UniformGrid& a, const UniformGrid& b) {
  ASSERT_EQ(a.pointDims().i, b.pointDims().i);
  ASSERT_EQ(a.pointDims().j, b.pointDims().j);
  ASSERT_EQ(a.pointDims().k, b.pointDims().k);
  ASSERT_EQ(a.fields().size(), b.fields().size());
  for (const auto& [name, field] : a.fields()) {
    ASSERT_TRUE(b.hasField(name)) << name;
    EXPECT_EQ(field.data(), b.field(name).data()) << name;
  }
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

bool hasPhase(const KernelProfile& profile, const std::string& name) {
  for (const WorkProfile& phase : profile.phases) {
    if (phase.name == name) return true;
  }
  return false;
}

// ---- decomposition mechanics -------------------------------------------

TEST(MultiBlock, PartitionTilesTheDomainExclusively) {
  const UniformGrid g = sim::makeCloverField(16);
  const Id ck = g.cellDims().k;
  MultiBlockGrid domain = MultiBlockGrid::partition(g, 4, 1);
  ASSERT_EQ(domain.numBlocks(), 4);

  Id covered = 0;
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    const auto& blk = domain.block(b);
    EXPECT_EQ(blk.globalCellBegin, b * ck / 4);
    EXPECT_GT(blk.ownedCells(), 0);
    covered += blk.ownedCells();
    for (Id k = blk.globalCellBegin; k < blk.globalCellEnd; ++k) {
      EXPECT_EQ(domain.ownerOfCellPlane(k), b);
    }
  }
  EXPECT_EQ(covered, ck);

  // More blocks than cell planes: clamps to one plane per block.
  EXPECT_EQ(MultiBlockGrid::partition(g, 100, 1).numBlocks(), ck);
}

TEST(MultiBlock, GhostExchangeIsLoadBearing) {
  const UniformGrid g = sim::makeCloverField(8);
  // Zero ghost layers would leave every block's top point plane
  // unfilled; partition refuses rather than producing wrong answers.
  EXPECT_THROW(MultiBlockGrid::partition(g, 2, 0), Error);

  // No output path is reachable before the exchange ran.
  MultiBlockGrid domain = MultiBlockGrid::partition(g, 2, 1);
  EXPECT_FALSE(domain.exchanged());
  util::ThreadPool pool(1);
  util::ExecutionContext ctx(pool);
  EXPECT_THROW(domain.stitchGlobal(ctx), Error);
  ContourFilter contour;
  contour.setIsovalues({1.0});
  EXPECT_THROW(runContour(ctx, domain, contour, "energy"), Error);

  domain.exchangeGhosts(ctx);
  EXPECT_TRUE(domain.exchanged());
  EXPECT_GT(domain.lastExchange().bytes, 0.0);
}

TEST(MultiBlock, StitchReproducesTheGlobalGridBitwise) {
  const UniformGrid g = sim::makeCloverField(16);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      SCOPED_TRACE(domainLabel(blocks, ghost));
      util::ThreadPool pool(2);
      util::ExecutionContext ctx(pool);
      MultiBlockGrid domain = MultiBlockGrid::partition(g, blocks, ghost);
      domain.exchangeGhosts(ctx);
      const UniformGrid stitched = domain.stitchGlobal(ctx);
      expectIdenticalGrids(stitched, g);
      EXPECT_GT(domain.lastStitch().bytes, 0.0);
    }
  }
}

TEST(MultiBlock, DomainSamplingMatchesTheGlobalGridBitwise) {
  const UniformGrid g = sim::makeCloverField(16);
  util::ThreadPool pool(1);
  util::ExecutionContext ctx(pool);
  MultiBlockGrid domain = MultiBlockGrid::partition(g, 4, 1);
  domain.exchangeGhosts(ctx);

  const Bounds box = g.bounds();
  const Vec3 ext = box.extent();
  const Field& energy = g.field("energy");
  const Field& velocity = g.field("velocity");
  // A deterministic scatter of probes, biased to land on and around the
  // inter-block seams (z at integer cell planes) where block-local
  // arithmetic would diverge if sampling didn't go through the global
  // skeleton.
  for (int i = 0; i < 200; ++i) {
    const double fx = (i * 29 % 97) / 96.0;
    const double fy = (i * 53 % 89) / 88.0;
    double fz = (i * 71 % 101) / 100.0;
    if (i % 3 == 0) fz = (i % 17) / 16.0;  // exactly on a cell plane
    const Vec3 p{box.lo.x + fx * ext.x, box.lo.y + fy * ext.y,
                 box.lo.z + fz * ext.z};
    double gs = 0.0, ds = 0.0;
    ASSERT_EQ(g.sampleScalar(energy, p, gs),
              domain.sampleScalar("energy", p, ds));
    EXPECT_EQ(gs, ds);
    Vec3 gv{}, dv{};
    ASSERT_EQ(g.sampleVector(velocity, p, gv),
              domain.sampleVector("velocity", p, dv));
    EXPECT_EQ(gv.x, dv.x);
    EXPECT_EQ(gv.y, dv.y);
    EXPECT_EQ(gv.z, dv.z);
  }
}

// ---- golden block-count invariance, filter by filter --------------------

TEST(MultiBlockDeterminism, ContourAcrossBlocksGhostsAndConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  util::ExecutionContext setup;
  ContourFilter filter;
  filter.setIsovalues(
      ContourFilter::uniformIsovalues(setup, g.field("energy"), 3));
  const TriangleMesh reference =
      serialReference([&](util::ExecutionContext& ctx) {
        return filter.run(ctx, g, "energy").surface;
      });
  EXPECT_GT(reference.numTriangles(), 0);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        const auto result =
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return runContour(ctx, d, filter, "energy");
                       });
        expectIdentical(result.surface, reference);
        Id passSum = 0;
        for (Id n : result.passTriangles) passSum += n;
        EXPECT_EQ(passSum, result.surface.numTriangles());
      }
    }
  }
}

TEST(MultiBlockDeterminism, ThresholdAcrossBlocksGhostsAndConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ThresholdFilter filter;
  filter.setRange(1.2, 2.2);
  const HexSubset reference =
      serialReference([&](util::ExecutionContext& ctx) {
        return filter.run(ctx, g, "energy").kept;
      });
  EXPECT_GT(reference.numCells(), 0);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        expectIdentical(
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return runThreshold(ctx, d, filter, "energy").kept;
                       }),
            reference);
      }
    }
  }
}

TEST(MultiBlockDeterminism, ClipSphereAcrossBlocksGhostsAndConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  const auto reference = serialReference([&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy").clipped;
  });
  EXPECT_GT(reference.cellsCut, 0);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        const auto clipped =
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return runClipSphere(ctx, d, filter, "energy").clipped;
                       });
        expectIdentical(clipped.wholeCells, reference.wholeCells);
        expectIdentical(clipped.cutPieces, reference.cutPieces);
        EXPECT_EQ(clipped.cellsIn, reference.cellsIn);
        EXPECT_EQ(clipped.cellsOut, reference.cellsOut);
        EXPECT_EQ(clipped.cellsCut, reference.cellsCut);
      }
    }
  }
}

TEST(MultiBlockDeterminism, IsovolumeAcrossBlocksGhostsAndConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  IsovolumeFilter filter;
  filter.setRange(1.3, 2.1);
  const auto reference = serialReference([&](util::ExecutionContext& ctx) {
    return filter.run(ctx, g, "energy");
  });
  EXPECT_GT(reference.cutPieces.numTets(), 0);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        const auto result =
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return runIsovolume(ctx, d, filter, "energy");
                       });
        expectIdentical(result.wholeCells, reference.wholeCells);
        expectIdentical(result.cutPieces, reference.cutPieces);
      }
    }
  }
}

TEST(MultiBlockDeterminism, SliceAcrossBlocksGhostsAndConfigs) {
  const UniformGrid g = sim::makeCloverField(16);
  SliceFilter filter;  // default three axis planes through the center
  const TriangleMesh reference =
      serialReference([&](util::ExecutionContext& ctx) {
        return filter.run(ctx, g, "energy").surface;
      });
  EXPECT_GT(reference.numTriangles(), 0);
  for (Id blocks : kBlockCounts) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        expectIdentical(
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return runSlice(ctx, d, filter, "energy").surface;
                       }),
            reference);
      }
    }
  }
}

TEST(MultiBlockDeterminism, AdvectionViaStitchedGrid) {
  const UniformGrid g = sim::makeCloverField(16);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(120);
  filter.setMaxSteps(80);
  filter.setStepLength(0.01);
  const PolylineSet reference =
      serialReference([&](util::ExecutionContext& ctx) {
        return filter.run(ctx, g, "velocity").streamlines;
      });
  EXPECT_GT(reference.numLines(), 0);
  for (Id blocks : {Id{2}, Id{4}, Id{8}}) {
    for (const ExecConfig& cfg : execConfigs()) {
      SCOPED_TRACE(domainLabel(blocks, 1) + ", " + cfg.label());
      expectIdentical(
          withDomain(cfg, g, blocks, 1,
                     [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                       return runParticleAdvection(ctx, d, filter, "velocity")
                           .streamlines;
                     }),
          reference);
    }
  }
}

// ---- awkward shapes -----------------------------------------------------

TEST(MultiBlockDeterminism, DegenerateColumnGrid) {
  // A 1×1×64 column of cells: blocks of a single 1×1×1 cell plane, every
  // cell seam is a block seam, and the 8-block case leaves some blocks
  // with ghost windows larger than their owned ranges.
  const UniformGrid g =
      fieldGrid({2, 2, 65}, [](const Vec3& p) { return p.z - 31.5; });
  ContourFilter contour;
  contour.setIsovalues({0.0});
  ThresholdFilter threshold;
  threshold.setRange(-20.0, 20.0);
  const auto reference = serialReference([&](util::ExecutionContext& ctx) {
    return std::make_pair(contour.run(ctx, g, "v").surface,
                          threshold.run(ctx, g, "v").kept);
  });
  EXPECT_GT(reference.first.numTriangles(), 0);
  EXPECT_GT(reference.second.numCells(), 0);
  for (Id blocks : {Id{2}, Id{8}, Id{64}}) {
    for (Id ghost : kGhostDepths) {
      for (const ExecConfig& cfg : execConfigs()) {
        SCOPED_TRACE(domainLabel(blocks, ghost) + ", " + cfg.label());
        const auto result =
            withDomain(cfg, g, blocks, ghost,
                       [&](util::ExecutionContext& ctx, MultiBlockGrid& d) {
                         return std::make_pair(
                             runContour(ctx, d, contour, "v").surface,
                             runThreshold(ctx, d, threshold, "v").kept);
                       });
        expectIdentical(result.first, reference.first);
        expectIdentical(result.second, reference.second);
      }
    }
  }
}

// ---- the algorithm layer ------------------------------------------------

TEST(MultiBlockAlgorithms, RunAlgorithmSurfacesExchangeAndStitchPhases) {
  const UniformGrid g = sim::makeCloverField(16);
  util::ThreadPool pool(2);
  util::ExecutionContext ctx(pool);

  core::AlgorithmParams single;
  single.blockCount = 1;
  const vis::KernelProfile flat =
      core::runAlgorithm(ctx, core::Algorithm::Contour, g, single);
  EXPECT_FALSE(hasPhase(flat, "ghost-exchange"));
  EXPECT_FALSE(hasPhase(flat, "block-stitch"));

  core::AlgorithmParams multi;
  multi.blockCount = 4;
  multi.ghostLayers = 1;
  const vis::KernelProfile blocked =
      core::runAlgorithm(ctx, core::Algorithm::Contour, g, multi);
  EXPECT_TRUE(hasPhase(blocked, "ghost-exchange"));
  EXPECT_TRUE(hasPhase(blocked, "block-stitch"));
  EXPECT_EQ(blocked.elements, g.numCells());
  // Same filter phases in the same order, before the decomposition and
  // framework extras.
  ASSERT_GE(blocked.phases.size(), flat.phases.size());
  for (std::size_t p = 0; p + 1 < flat.phases.size(); ++p) {
    EXPECT_EQ(blocked.phases[p].name, flat.phases[p].name);
  }
}

TEST(MultiBlockAlgorithms, GloballyTraversingAlgorithmsRunOnStitchedGrid) {
  // Advection has no per-block runner; the multi-block path stitches and
  // runs the unchanged kernel, so the profile keeps its phases and gains
  // the stitch + exchange accounting.
  const UniformGrid g = sim::makeCloverField(8);
  util::ThreadPool pool(2);
  util::ExecutionContext ctx(pool);
  core::AlgorithmParams params;
  params.seedCount = 50;
  params.maxSteps = 40;
  params.blockCount = 2;
  const vis::KernelProfile profile =
      core::runAlgorithm(ctx, core::Algorithm::ParticleAdvection, g, params);
  EXPECT_TRUE(hasPhase(profile, "ghost-exchange"));
  EXPECT_TRUE(hasPhase(profile, "block-stitch"));
}

}  // namespace
}  // namespace pviz::vis
