#include "viz/filters/domain.h"

#include <algorithm>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

// Per-block profiles have the same phase list (same code ran on every
// block), so phases accumulate positionally; elements is reset to the
// global cell count for the Moreland–Oldfield rate.
KernelProfile mergeBlockProfiles(std::vector<KernelProfile>&& parts,
                                 Id globalElements) {
  KernelProfile merged = std::move(parts.front());
  for (std::size_t b = 1; b < parts.size(); ++b) {
    PVIZ_ASSERT(parts[b].phases.size() == merged.phases.size());
    for (std::size_t p = 0; p < merged.phases.size(); ++p) {
      merged.phases[p] += parts[b].phases[p];
    }
  }
  merged.elements = globalElements;
  return merged;
}

/// Flat-cell-id base of block b: its cells are the contiguous global
/// range [c0*CI*CJ, c1*CI*CJ) because flat ids are k-slowest.
Id blockCellBase(const MultiBlockGrid& domain, Id b) {
  const Id3 cd = domain.skeleton().cellDims();
  return domain.block(b).globalCellBegin * cd.i * cd.j;
}

void requireExchanged(const MultiBlockGrid& domain) {
  PVIZ_REQUIRE(domain.exchanged(),
               "domain runners require exchangeGhosts() first");
}

/// Concatenate the blocks' cell subsets in block order, remapping
/// block-local cell ids to global ones; the output is sized once.
template <typename CellsOf>
HexSubset stitchCells(const MultiBlockGrid& domain, CellsOf&& cellsOf) {
  std::size_t total = 0;
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    total += cellsOf(b).cellIds.size();
  }
  HexSubset out;
  out.cellIds.resize(total);
  out.cellScalars.resize(total);
  std::size_t at = 0;
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    const HexSubset& in = cellsOf(b);
    const Id base = blockCellBase(domain, b);
    const auto to = static_cast<std::ptrdiff_t>(at);
    std::transform(in.cellIds.begin(), in.cellIds.end(),
                   out.cellIds.begin() + to,
                   [base](Id id) { return base + id; });
    std::copy(in.cellScalars.begin(), in.cellScalars.end(),
              out.cellScalars.begin() + to);
    at += in.cellIds.size();
  }
  return out;
}

/// Copy tets [tetBegin, tetEnd) of the soup `in` to the pre-sized soup
/// `out` from tet slot `at`: tet t is points 4t..4t+3, so copying the
/// points in place keeps every tet valid.
void copyTets(TetMesh& out, Id at, const TetMesh& in, Id tetBegin,
              Id tetEnd) {
  const auto pb = static_cast<std::ptrdiff_t>(tetBegin * 4);
  const auto pe = static_cast<std::ptrdiff_t>(tetEnd * 4);
  const auto to = static_cast<std::ptrdiff_t>(at * 4);
  std::copy(in.points.begin() + pb, in.points.begin() + pe,
            out.points.begin() + to);
  std::copy(in.pointScalars.begin() + pb, in.pointScalars.begin() + pe,
            out.pointScalars.begin() + to);
}

}  // namespace

WorkProfile ghostExchangePhase(const MultiBlockGrid::CopyStats& stats) {
  WorkProfile phase;
  phase.name = "ghost-exchange";
  const double doubles = stats.bytes / 8.0;
  phase.intOps = doubles;       // addressing
  phase.memOps = doubles * 2;   // load + store per element
  phase.bytesStreamed = stats.bytes * 2;  // source read + destination write
  phase.irregularAccesses = static_cast<double>(stats.planes);
  phase.parallelFraction = 0.95;
  phase.overlap = 0.95;  // pure streaming copies prefetch perfectly
  return phase;
}

WorkProfile blockStitchPhase(double bytes) {
  WorkProfile phase = ghostExchangePhase({bytes, 0});
  phase.name = "block-stitch";
  phase.irregularAccesses = 0;
  return phase;
}

ContourFilter::Result runContour(util::ExecutionContext& ctx,
                                 MultiBlockGrid& domain,
                                 const ContourFilter& filter,
                                 const std::string& fieldName) {
  requireExchanged(domain);
  std::vector<ContourFilter::Result> parts;
  parts.reserve(static_cast<std::size_t>(domain.numBlocks()));
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    parts.push_back(filter.run(ctx, domain.block(b).owned, fieldName));
  }

  auto stitchScope = ctx.phase("block-stitch");
  ContourFilter::Result result;
  const std::size_t passes = parts.front().passTriangles.size();
  result.passTriangles.assign(passes, 0);
  Id totalTris = 0;
  for (const auto& part : parts) {
    for (std::size_t pi = 0; pi < passes; ++pi) {
      result.passTriangles[pi] += part.passTriangles[pi];
      totalTris += part.passTriangles[pi];
    }
  }

  // The global surface is pass-major, then cell-major; cell order is
  // block order, so gather as (pass, block) with a per-block running
  // cursor through that block's own pass-major layout.
  TriangleMesh& surface = result.surface;
  const auto totalVerts = static_cast<std::size_t>(totalTris) * 3;
  surface.points.reserve(totalVerts);
  surface.pointScalars.reserve(totalVerts);
  std::vector<std::size_t> cursor(parts.size(), 0);
  for (std::size_t pi = 0; pi < passes; ++pi) {
    for (std::size_t b = 0; b < parts.size(); ++b) {
      const TriangleMesh& src = parts[b].surface;
      const auto count =
          static_cast<std::size_t>(parts[b].passTriangles[pi]) * 3;
      const auto at = static_cast<std::ptrdiff_t>(cursor[b]);
      surface.points.insert(surface.points.end(), src.points.begin() + at,
                            src.points.begin() + at +
                                static_cast<std::ptrdiff_t>(count));
      surface.pointScalars.insert(
          surface.pointScalars.end(), src.pointScalars.begin() + at,
          src.pointScalars.begin() + at + static_cast<std::ptrdiff_t>(count));
      cursor[b] += count;
    }
  }
  // Triangle-soup connectivity is the identity in the global layout.
  surface.connectivity.resize(totalVerts);
  util::parallelFor(ctx, 0, static_cast<Id>(totalVerts), [&](Id p) {
    surface.connectivity[static_cast<std::size_t>(p)] = p;
  });

  std::vector<KernelProfile> profiles;
  profiles.reserve(parts.size());
  for (auto& part : parts) profiles.push_back(std::move(part.profile));
  result.profile =
      mergeBlockProfiles(std::move(profiles), domain.skeleton().numCells());
  result.profile.phases.push_back(
      blockStitchPhase(static_cast<double>(totalVerts) * 40.0));
  return result;
}

ThresholdFilter::Result runThreshold(util::ExecutionContext& ctx,
                                     MultiBlockGrid& domain,
                                     const ThresholdFilter& filter,
                                     const std::string& fieldName) {
  requireExchanged(domain);
  std::vector<ThresholdFilter::Result> parts;
  parts.reserve(static_cast<std::size_t>(domain.numBlocks()));
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    parts.push_back(filter.run(ctx, domain.block(b).owned, fieldName));
  }

  auto stitchScope = ctx.phase("block-stitch");
  ThresholdFilter::Result result;
  result.kept = stitchCells(domain, [&](Id b) -> const HexSubset& {
    return parts[static_cast<std::size_t>(b)].kept;
  });

  std::vector<KernelProfile> profiles;
  profiles.reserve(parts.size());
  for (auto& part : parts) profiles.push_back(std::move(part.profile));
  result.profile =
      mergeBlockProfiles(std::move(profiles), domain.skeleton().numCells());
  result.profile.phases.push_back(blockStitchPhase(
      static_cast<double>(result.kept.numCells()) * 16.0));
  return result;
}

ClipSphereFilter::Result runClipSphere(util::ExecutionContext& ctx,
                                       MultiBlockGrid& domain,
                                       const ClipSphereFilter& filter,
                                       const std::string& fieldName) {
  requireExchanged(domain);
  std::vector<ClipSphereFilter::Result> parts;
  parts.reserve(static_cast<std::size_t>(domain.numBlocks()));
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    parts.push_back(filter.run(ctx, domain.block(b).owned, fieldName));
  }

  auto stitchScope = ctx.phase("block-stitch");
  ClipSphereFilter::Result result;
  ClipResult& clipped = result.clipped;
  clipped.wholeCells = stitchCells(domain, [&](Id b) -> const HexSubset& {
    return parts[static_cast<std::size_t>(b)].clipped.wholeCells;
  });
  Id totalTets = 0;
  for (const auto& part : parts) {
    totalTets += part.clipped.cutPieces.numTets();
    clipped.cellsIn += part.clipped.cellsIn;
    clipped.cellsOut += part.clipped.cellsOut;
    clipped.cellsCut += part.clipped.cellsCut;
  }
  resizeTetSoup(clipped.cutPieces, totalTets);
  Id at = 0;
  for (const auto& part : parts) {
    const TetMesh& pieces = part.clipped.cutPieces;
    copyTets(clipped.cutPieces, at, pieces, 0, pieces.numTets());
    at += pieces.numTets();
  }

  std::vector<KernelProfile> profiles;
  profiles.reserve(parts.size());
  for (auto& part : parts) profiles.push_back(std::move(part.profile));
  result.profile =
      mergeBlockProfiles(std::move(profiles), domain.skeleton().numCells());
  // 40 B per tet point includes the connectivity id VTK-m's output carries.
  result.profile.phases.push_back(blockStitchPhase(
      static_cast<double>(result.clipped.wholeCells.numCells()) * 16.0 +
      static_cast<double>(result.clipped.cutPieces.numPoints()) * 40.0));
  return result;
}

IsovolumeFilter::Result runIsovolume(util::ExecutionContext& ctx,
                                     MultiBlockGrid& domain,
                                     const IsovolumeFilter& filter,
                                     const std::string& fieldName) {
  requireExchanged(domain);
  std::vector<IsovolumeFilter::Result> parts;
  parts.reserve(static_cast<std::size_t>(domain.numBlocks()));
  for (Id b = 0; b < domain.numBlocks(); ++b) {
    parts.push_back(filter.run(ctx, domain.block(b).owned, fieldName));
  }

  auto stitchScope = ctx.phase("block-stitch");
  IsovolumeFilter::Result result;
  result.wholeCells = stitchCells(domain, [&](Id b) -> const HexSubset& {
    return parts[static_cast<std::size_t>(b)].wholeCells;
  });
  // The global cutPieces is two segments — every block's lo-cut tets (in
  // block order), then every block's hi-cut tets — matching the
  // single-grid run's segment order.
  Id totalTets = 0;
  for (const auto& part : parts) {
    totalTets += part.cutPieces.numTets();
    result.lowClipTets += part.lowClipTets;
  }
  resizeTetSoup(result.cutPieces, totalTets);
  Id low = 0;
  Id high = result.lowClipTets;
  for (const auto& part : parts) {
    const TetMesh& pieces = part.cutPieces;
    copyTets(result.cutPieces, low, pieces, 0, part.lowClipTets);
    copyTets(result.cutPieces, high, pieces, part.lowClipTets,
             pieces.numTets());
    low += part.lowClipTets;
    high += pieces.numTets() - part.lowClipTets;
  }

  std::vector<KernelProfile> profiles;
  profiles.reserve(parts.size());
  for (auto& part : parts) profiles.push_back(std::move(part.profile));
  result.profile =
      mergeBlockProfiles(std::move(profiles), domain.skeleton().numCells());
  // 40 B per tet point includes the connectivity id VTK-m's output carries.
  result.profile.phases.push_back(blockStitchPhase(
      static_cast<double>(result.wholeCells.numCells()) * 16.0 +
      static_cast<double>(result.cutPieces.numPoints()) * 40.0));
  return result;
}

SliceFilter::Result runSlice(util::ExecutionContext& ctx,
                             MultiBlockGrid& domain, const SliceFilter& filter,
                             const std::string& fieldName) {
  requireExchanged(domain);
  const UniformGrid& skel = domain.skeleton();
  PVIZ_REQUIRE(
      domain.block(0).owned.field(fieldName).association() ==
          Association::Points,
      "slice colors by a point field");

  std::vector<Plane> planes = filter.planes();
  if (planes.empty()) {
    // skeleton() reproduces the global bounds bitwise, so the default
    // planes match the single-grid run's exactly.
    const Vec3 c = skel.bounds().center();
    planes = {{c, {0, 0, 1}}, {c, {1, 0, 0}}, {c, {0, 1, 0}}};
  }

  SliceFilter::Result result;
  result.profile.kernel = "slice";
  result.profile.elements = skel.numCells();

  double totalTris = 0.0;
  double stitchBytes = 0.0;
  for (const Plane& plane : planes) {
    const Vec3 n = normalize(plane.normal);

    // Per-block signed-distance contour at zero; one isovalue pass, so
    // the plane's global surface is plain block-order concatenation.
    TriangleMesh planeSurface;
    for (Id b = 0; b < domain.numBlocks(); ++b) {
      const UniformGrid& owned = domain.block(b).owned;
      // Bare work grid with the block's window offset: pointPosition()
      // returns the global lattice positions bitwise.
      UniformGrid work(owned.pointDims(), skel.origin(), skel.spacing(),
                       owned.indexOffset());
      Field distance = Field::forOverwrite(
          "slice-distance", Association::Points, 1, work.numPoints());
      util::Buffer<double>& d = distance.data();
      {
        auto distPhase = ctx.phase("signed-distance");
        util::parallelFor(ctx, 0, work.numPoints(), [&](Id p) {
          d[static_cast<std::size_t>(p)] =
              dot(work.pointPosition(p) - plane.origin, n);
        });
      }
      work.addField(std::move(distance));

      ContourFilter contour;
      contour.setIsovalues({0.0});
      ContourFilter::Result cut = contour.run(ctx, work, "slice-distance");
      planeSurface.append(cut.surface);
    }

    // Color by the data field through the domain sampler: locate on the
    // global skeleton, evaluate through the owner block — bitwise-equal
    // to the single-grid grid.sampleScalar path.
    auto colorPhase = ctx.phase("color");
    util::parallelFor(ctx, 0, planeSurface.numPoints(), [&](Id p) {
      double v = 0.0;
      domain.sampleScalar(fieldName,
                          planeSurface.points[static_cast<std::size_t>(p)], v);
      planeSurface.pointScalars[static_cast<std::size_t>(p)] = v;
    });

    totalTris += static_cast<double>(planeSurface.numTriangles());
    stitchBytes += static_cast<double>(planeSurface.numPoints()) * 40.0;
    result.surface.append(planeSurface);
  }

  // Workload characterization: identical analytic formulas to the
  // single-grid slice (global counts), plus the stitch cost.
  const double points = static_cast<double>(skel.numPoints());
  const double cells = static_cast<double>(skel.numCells());
  const double nPlanes = static_cast<double>(planes.size());

  WorkProfile& dist = result.profile.addPhase("signed-distance");
  dist.flops = nPlanes * points * 6;
  dist.intOps = nPlanes * points * 6;
  dist.memOps = nPlanes * points * 3;
  dist.bytesStreamed = nPlanes * points * 8;
  dist.irregularAccesses = nPlanes * points * 0.5;
  dist.workingSetBytes = static_cast<double>(skel.pointDims().i) *
                         static_cast<double>(skel.pointDims().j) * 8 * 2;
  dist.parallelFraction = 0.995;
  dist.overlap = 0.85;

  WorkProfile& classify = result.profile.addPhase("mc-classify");
  classify.flops = nPlanes * cells * 8;
  classify.intOps = nPlanes * cells * 34;
  classify.memOps = nPlanes * cells * 12;
  classify.bytesStreamed = nPlanes * (points * 8 + cells);
  classify.bytesReused = nPlanes * cells * 40;
  classify.irregularAccesses = nPlanes * cells * 1.4;
  classify.workingSetBytes = static_cast<double>(skel.pointDims().i) *
                             static_cast<double>(skel.pointDims().j) * 8 * 4;
  classify.parallelFraction = 0.995;
  classify.overlap = 0.9;

  WorkProfile& generate = result.profile.addPhase("mc-generate+color");
  generate.flops = totalTris * 60;
  generate.intOps = totalTris * 90;
  generate.memOps = totalTris * 60;
  generate.bytesStreamed = totalTris * 3 * 40;
  generate.bytesReused = totalTris * 8 * 24;
  generate.parallelFraction = 0.98;
  generate.overlap = 0.8;

  WorkProfile& scan = result.profile.addPhase("scan");
  scan.intOps = nPlanes * cells * 4;
  scan.memOps = nPlanes * cells * 3;
  scan.bytesStreamed = nPlanes * cells * 16;
  scan.parallelFraction = 0.9;
  scan.overlap = 0.9;

  result.profile.phases.push_back(blockStitchPhase(stitchBytes));
  return result;
}

ParticleAdvectionFilter::Result runParticleAdvection(
    util::ExecutionContext& ctx, MultiBlockGrid& domain,
    const ParticleAdvectionFilter& filter, const std::string& fieldName) {
  requireExchanged(domain);
  UniformGrid global;
  {
    auto stitchScope = ctx.phase("block-stitch");
    global = domain.stitchGlobal(ctx);
  }
  ParticleAdvectionFilter::Result result = filter.run(ctx, global, fieldName);
  result.profile.phases.push_back(blockStitchPhase(domain.lastStitch().bytes));
  return result;
}

}  // namespace pviz::vis
