// Slice — cut the dataset with planes.
//
// Per the paper: a new point field holding the signed distance from the
// plane is computed over the whole mesh (compute intensive), then the
// contour algorithm extracts the zero level set.  The study's "3-slice"
// configuration cuts the x-y, y-z, and x-z planes through the dataset
// center; the three resulting surfaces are combined.
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

struct Plane {
  Vec3 origin;
  Vec3 normal;  ///< need not be unit length; normalized internally
};

class SliceFilter {
 public:
  struct Result {
    TriangleMesh surface;
    KernelProfile profile;
  };

  /// Explicit plane list; empty (default) = the study's three axis
  /// planes through the dataset center.
  void setPlanes(std::vector<Plane> planes) { planes_ = std::move(planes); }
  const std::vector<Plane>& planes() const { return planes_; }

  /// Slice `grid`, coloring the output by point scalar `fieldName`.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  std::vector<Plane> planes_;
};

}  // namespace pviz::vis
