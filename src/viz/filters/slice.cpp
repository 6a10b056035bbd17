#include "viz/filters/slice.h"

#include "util/exec_context.h"
#include "util/parallel.h"
#include "viz/filters/contour.h"

namespace pviz::vis {

SliceFilter::Result SliceFilter::run(util::ExecutionContext& ctx,
                                     const UniformGrid& grid,
                                     const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "slice colors by a point field");

  std::vector<Plane> planes = planes_;
  if (planes.empty()) {
    const Vec3 c = grid.bounds().center();
    planes = {{c, {0, 0, 1}}, {c, {1, 0, 0}}, {c, {0, 1, 0}}};
  }

  Result result;
  result.profile.kernel = "slice";
  result.profile.elements = grid.numCells();  // Moreland–Oldfield rate

  const Id numPoints = grid.numPoints();
  // A bare grid of the same shape holds the per-plane distance field
  // (avoids copying the source's data fields).
  UniformGrid work(grid.pointDims(), grid.origin(), grid.spacing());

  double totalCrossed = 0.0;
  double totalTris = 0.0;

  for (const Plane& plane : planes) {
    const Vec3 n = normalize(plane.normal);
    Field distance = Field::forOverwrite("slice-distance",
                                         Association::Points, 1, numPoints);
    util::Buffer<double>& d = distance.data();
    {
      auto distPhase = ctx.phase("signed-distance");
      util::parallelFor(ctx, 0, numPoints, [&](Id p) {
        d[static_cast<std::size_t>(p)] =
            dot(grid.pointPosition(p) - plane.origin, n);
      });
    }
    work.addField(std::move(distance));

    ContourFilter contour;
    contour.setIsovalues({0.0});
    ContourFilter::Result cut = contour.run(ctx, work, "slice-distance");

    // Color the cut surface by the data field (sample at each vertex).
    auto colorPhase = ctx.phase("color");
    util::parallelFor(ctx, 0, cut.surface.numPoints(), [&](Id p) {
      double v = 0.0;
      grid.sampleScalar(field, cut.surface.points[static_cast<std::size_t>(p)],
                        v);
      cut.surface.pointScalars[static_cast<std::size_t>(p)] = v;
    });

    totalTris += static_cast<double>(cut.surface.numTriangles());
    for (const auto& phase : cut.profile.phases) {
      if (phase.name == "mc-generate") {
        totalCrossed += phase.bytesReused / (8.0 * 8.0);
      }
    }
    result.surface.append(cut.surface);
  }

  // --- Workload characterization.  The distance field is an extra
  // compute-heavy full-mesh pass per plane (the paper: slice has higher
  // IPC than contour because of the signed-distance computation).
  const double points = static_cast<double>(numPoints);
  const double cells = static_cast<double>(grid.numCells());
  const double nPlanes = static_cast<double>(planes.size());

  WorkProfile& dist = result.profile.addPhase("signed-distance");
  dist.flops = nPlanes * points * 6;  // position reconstruct + dot
  dist.intOps = nPlanes * points * 6;
  dist.memOps = nPlanes * points * 3;
  dist.bytesStreamed = nPlanes * points * 8;
  dist.irregularAccesses = nPlanes * points * 0.5;
  dist.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                         static_cast<double>(grid.pointDims().j) * 8 * 2;
  dist.parallelFraction = 0.995;
  dist.overlap = 0.85;

  WorkProfile& classify = result.profile.addPhase("mc-classify");
  classify.flops = nPlanes * cells * 8;
  classify.intOps = nPlanes * cells * 34;
  classify.memOps = nPlanes * cells * 12;
  classify.bytesStreamed = nPlanes * (points * 8 + cells);
  classify.bytesReused = nPlanes * cells * 40;
  classify.irregularAccesses = nPlanes * cells * 1.4;
  classify.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                             static_cast<double>(grid.pointDims().j) * 8 * 4;
  classify.parallelFraction = 0.995;
  classify.overlap = 0.9;

  WorkProfile& generate = result.profile.addPhase("mc-generate+color");
  generate.flops = totalTris * 60;  // interpolate + orientation + resample
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

  (void)totalCrossed;
  return result;
}

}  // namespace pviz::vis
