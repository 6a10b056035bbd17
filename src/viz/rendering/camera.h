// Pinhole camera and the study's orbiting camera database.
//
// The paper renders an image database of 50 images per visualization
// cycle from different camera positions around the dataset; cameraOrbit
// reproduces that placement (equally spaced azimuth at a fixed
// elevation, all looking at the dataset center).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "viz/types.h"

namespace pviz::vis {

struct Ray {
  Vec3 origin;
  Vec3 direction;  ///< unit length
};

class Camera {
 public:
  Camera(Vec3 position, Vec3 lookAt, Vec3 up, double fovYDegrees);

  /// Primary ray through pixel (x, y) of a width×height image
  /// (pixel centers, y down).
  Ray pixelRay(int x, int y, int width, int height) const;

  Vec3 position() const { return position_; }

 private:
  Vec3 position_;
  Vec3 forward_;
  Vec3 right_;
  Vec3 upVec_;
  double tanHalfFov_;
};

/// `count` cameras equally spaced around `box` at ~30° elevation, at
/// radius / tan(fov/2) × 1.4 + radius from its center.  That frames the
/// dataset small: at 128³ with 8 cameras at 512², 16.5 % of the rays hit
/// it.
std::vector<Camera> cameraOrbit(const Bounds& box, int count,
                                double fovYDegrees = 45.0);

/// Ray/axis-aligned-box intersection; on hit returns true and the entry
/// and exit parameters (tNear <= tFar, tFar >= 0).  Inline: the volume
/// renderer runs it once per pixel and the BVH once per node visited.
/// The slabs divide by the direction on purpose: a reciprocal would
/// round differently and move the entry point, and with it every sample
/// and BVH traversal count.
inline bool intersectBox(const Ray& ray, const Bounds& box, double& tNear,
                         double& tFar) {
  tNear = -1e300;
  tFar = 1e300;
  for (int axis = 0; axis < 3; ++axis) {
    const double o = ray.origin[axis];
    const double d = ray.direction[axis];
    const double lo = box.lo[axis];
    const double hi = box.hi[axis];
    if (d == 0.0) {
      if (o < lo || o > hi) return false;
      continue;
    }
    double t0 = (lo - o) / d;
    double t1 = (hi - o) / d;
    if (t0 > t1) std::swap(t0, t1);
    tNear = std::max(tNear, t0);
    tFar = std::min(tFar, t1);
    if (tNear > tFar) return false;
  }
  return tFar >= 0.0;
}

}  // namespace pviz::vis
