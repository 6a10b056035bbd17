#include "viz/filters/gradient.h"

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

GradientFilter::Result GradientFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "gradient requires a point field");
  PVIZ_REQUIRE(field.components() == 1, "gradient requires a scalar field");

  const Id3 dims = grid.pointDims();
  const Vec3 h = grid.spacing();
  const util::Buffer<double>& f = field.data();

  Result result;
  result.gradient = Field::forOverwrite(
      fieldName + "-gradient", Association::Points, 3, grid.numPoints());
  util::Buffer<double>& g = result.gradient.data();

  auto at = [&](Id i, Id j, Id k) {
    return f[static_cast<std::size_t>(grid.pointId({i, j, k}))];
  };
  // One-sided at the boundary, central in the interior.
  auto diff = [&](Id idx, Id extent, double lo, double mid, double hi,
                  double spacing) {
    if (idx == 0) return (hi - mid) / spacing;           // forward
    if (idx == extent - 1) return (mid - lo) / spacing;  // backward
    return (hi - lo) / (2.0 * spacing);                  // central
  };

  auto stencilPhase = ctx.phase("central-differences");
  util::parallelFor(ctx, 0, grid.numPoints(), [&](Id p) {
    const Id3 ijk = grid.pointIjk(p);
    const Id i = ijk.i, j = ijk.j, k = ijk.k;
    const double mid = at(i, j, k);
    const double xm = i > 0 ? at(i - 1, j, k) : mid;
    const double xp = i < dims.i - 1 ? at(i + 1, j, k) : mid;
    const double ym = j > 0 ? at(i, j - 1, k) : mid;
    const double yp = j < dims.j - 1 ? at(i, j + 1, k) : mid;
    const double zm = k > 0 ? at(i, j, k - 1) : mid;
    const double zp = k < dims.k - 1 ? at(i, j, k + 1) : mid;
    const std::size_t base = static_cast<std::size_t>(p) * 3;
    g[base] = diff(i, dims.i, xm, mid, xp, h.x);
    g[base + 1] = diff(j, dims.j, ym, mid, yp, h.y);
    g[base + 2] = diff(k, dims.k, zm, mid, zp, h.z);
  });

  result.profile.kernel = "gradient";
  result.profile.elements = grid.numCells();
  const double points = static_cast<double>(grid.numPoints());
  WorkProfile& stencil = result.profile.addPhase("central-differences");
  stencil.flops = points * 9;
  stencil.intOps = points * 26;
  stencil.memOps = points * 10;
  stencil.bytesStreamed = field.sizeBytes() + points * 24;
  stencil.bytesReused = points * 40;
  stencil.irregularAccesses = points * 1.2;
  stencil.workingSetBytes =
      static_cast<double>(dims.i) * static_cast<double>(dims.j) * 8 * 4;
  stencil.parallelFraction = 0.995;
  stencil.overlap = 0.9;
  return result;
}

Field vectorMagnitude(util::ExecutionContext& ctx, const Field& vectors,
                      const std::string& outputName) {
  PVIZ_REQUIRE(vectors.components() == 3,
               "vectorMagnitude needs a 3-component field");
  Field out = Field::forOverwrite(outputName, vectors.association(), 1,
                                  vectors.count());
  util::parallelFor(ctx, 0, vectors.count(), [&](Id p) {
    out.setScalar(p, length(vectors.vec3(p)));
  });
  return out;
}

}  // namespace pviz::vis
