// Contour (isosurface) filter — Marching Cubes over hexahedral cells.
//
// Mirrors the paper's configuration: a single visualization cycle
// evaluates the filter at several isovalues (the study used 10) and
// combines the resulting geometry into one output surface.
//
// Implementation: the classic two-pass data-parallel structure VTK-m
// uses — a classify pass counts output triangles per cell, an exclusive
// scan allocates exact-size output, and a generate pass interpolates and
// writes triangles with no synchronization.
#pragma once

#include <string>
#include <vector>

#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class ContourFilter {
 public:
  struct Result {
    TriangleMesh surface;
    /// Triangles emitted per isovalue pass, in pass order.  The surface
    /// is laid out pass-major (all of pass 0's triangles, then pass
    /// 1's, ...), so these counts let the multi-block stitch interleave
    /// per-block surfaces back into the exact global pass-major order.
    std::vector<Id> passTriangles;
    KernelProfile profile;
  };

  /// Isovalues to extract; by default the study's 10 equally spaced
  /// values are derived from the field range at run time.
  void setIsovalues(std::vector<double> isovalues) {
    isovalues_ = std::move(isovalues);
  }
  const std::vector<double>& isovalues() const { return isovalues_; }

  /// Derive `count` isovalues uniformly spaced inside the range of
  /// `field` (excluding the extremes, which generate no geometry).
  static std::vector<double> uniformIsovalues(util::ExecutionContext& ctx,
                                              const Field& field, int count);

  /// Extract the isosurface of point scalar `fieldName`.  Runs on the
  /// context's pool with arena-backed scratch; cancellable at phase and
  /// chunk boundaries.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  std::vector<double> isovalues_;
};

}  // namespace pviz::vis
