#include "viz/filters/clip_sphere.h"

#include <cmath>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

ClipSphereFilter::Result ClipSphereFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "spherical clip carries a point field");

  const Id numPoints = grid.numPoints();

  // Signed distance from the sphere: positive outside (kept).
  util::ScratchVector<double> distance;
  {
    auto distPhase = ctx.phase("distance-field");
    distance.acquire(ctx.arena(), static_cast<std::size_t>(numPoints));
    util::parallelFor(ctx, 0, numPoints, [&](Id p) {
      distance[static_cast<std::size_t>(p)] =
          length(grid.pointPosition(p) - center_) - radius_;
    });
  }

  Result result;
  result.clipped = clipUniformGrid(
      ctx, grid, std::span<const double>(distance.data(), distance.size()),
      field.data());

  // --- Workload characterization. ---------------------------------------
  result.profile.kernel = "spherical-clip";
  result.profile.elements = grid.numCells();
  const double points = static_cast<double>(numPoints);
  const double cells = static_cast<double>(grid.numCells());
  const double cut = static_cast<double>(result.clipped.cellsCut);
  const double keptTets =
      static_cast<double>(result.clipped.cutPieces.numTets());

  WorkProfile& dist = result.profile.addPhase("distance-field");
  dist.flops = points * 8;  // position, norm, sqrt
  dist.intOps = points * 8;
  dist.memOps = points * 3;
  dist.bytesStreamed = points * 8;  // distance write (positions computed)
  dist.parallelFraction = 0.995;
  dist.overlap = 0.9;

  WorkProfile& classify = result.profile.addPhase("classify");
  classify.flops = cells * 8;
  classify.intOps = cells * 30;
  classify.memOps = cells * 10;
  classify.bytesStreamed = points * 8 + cells;  // distance read + state
  classify.bytesReused = cells * 36;
  classify.irregularAccesses = cells * 2.6;
  classify.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                             static_cast<double>(grid.pointDims().j) * 8 * 4;
  classify.parallelFraction = 0.995;
  classify.overlap = 0.9;

  WorkProfile& subdivide = result.profile.addPhase("subdivide");
  subdivide.flops = cut * 6 * 14 + keptTets * 42;  // tet clip + lerps
  subdivide.intOps = cut * 115 + keptTets * 40;
  subdivide.memOps = cut * 60 + keptTets * 40;
  // Per tet point: position, scalar, and the id VTK-m's output carries.
  subdivide.bytesStreamed = keptTets * 4 * (24 + 8 + 8) + cut * 24;
  subdivide.bytesReused = cut * 8 * 24;
  subdivide.irregularAccesses = cut * 20;
  subdivide.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                              static_cast<double>(grid.pointDims().j) * 8 * 6;
  subdivide.parallelFraction = 0.98;
  subdivide.overlap = 0.8;

  WorkProfile& compact = result.profile.addPhase("compact");
  compact.intOps = cells * 6;
  compact.memOps = cells * 3;
  compact.bytesStreamed =
      cells * 8 + static_cast<double>(result.clipped.wholeCells.numCells()) * 16;
  compact.parallelFraction = 0.3;  // scan + merge have serial sections
  compact.overlap = 0.92;

  return result;
}

}  // namespace pviz::vis
