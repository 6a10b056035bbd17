// Spherical clip — cull geometry inside a sphere.
//
// Per the paper: cells completely inside the sphere are omitted; cells
// completely outside are passed to the output whole; straddling cells
// are subdivided and only the outside part is kept.
#pragma once

#include <string>

#include "viz/filters/clip_common.h"
#include "viz/worklet/work_profile.h"

namespace pviz::vis {

class ClipSphereFilter {
 public:
  struct Result {
    ClipResult clipped;
    KernelProfile profile;
  };

  void setSphere(Vec3 center, double radius) {
    PVIZ_REQUIRE(radius > 0.0, "clip sphere radius must be positive");
    center_ = center;
    radius_ = radius;
  }
  Vec3 center() const { return center_; }
  double radius() const { return radius_; }

  /// Clip `grid`, carrying point scalar `fieldName` onto the output.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  Vec3 center_{0.5, 0.5, 0.5};
  double radius_ = 0.25;
};

}  // namespace pviz::vis
