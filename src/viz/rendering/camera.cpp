#include "viz/rendering/camera.h"

#include <cmath>

#include "util/error.h"

namespace pviz::vis {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

Camera::Camera(Vec3 position, Vec3 lookAt, Vec3 up, double fovYDegrees)
    : position_(position) {
  PVIZ_REQUIRE(fovYDegrees > 0.0 && fovYDegrees < 180.0,
               "camera field of view must be in (0, 180)");
  forward_ = normalize(lookAt - position);
  PVIZ_REQUIRE(length(forward_) > 0.0, "camera position equals look-at point");
  right_ = normalize(cross(forward_, up));
  PVIZ_REQUIRE(length(right_) > 0.0, "camera up is parallel to view");
  upVec_ = cross(right_, forward_);
  tanHalfFov_ = std::tan(fovYDegrees * kPi / 360.0);
}

Ray Camera::pixelRay(int x, int y, int width, int height) const {
  const double aspect = static_cast<double>(width) / height;
  const double u =
      (2.0 * (static_cast<double>(x) + 0.5) / width - 1.0) * aspect *
      tanHalfFov_;
  const double v =
      (1.0 - 2.0 * (static_cast<double>(y) + 0.5) / height) * tanHalfFov_;
  return {position_, normalize(forward_ + right_ * u + upVec_ * v)};
}

std::vector<Camera> cameraOrbit(const Bounds& box, int count,
                                double fovYDegrees) {
  PVIZ_REQUIRE(count >= 1, "camera orbit needs at least one camera");
  const Vec3 center = box.center();
  const double radius = 0.5 * length(box.extent());
  const double distance =
      radius / std::tan(fovYDegrees * kPi / 360.0) * 1.4 + radius;
  std::vector<Camera> cameras;
  cameras.reserve(static_cast<std::size_t>(count));
  const double elevation = 30.0 * kPi / 180.0;
  for (int i = 0; i < count; ++i) {
    const double azimuth = 2.0 * kPi * static_cast<double>(i) / count;
    const Vec3 pos{
        center.x + distance * std::cos(elevation) * std::cos(azimuth),
        center.y + distance * std::cos(elevation) * std::sin(azimuth),
        center.z + distance * std::sin(elevation)};
    cameras.emplace_back(pos, center, Vec3{0, 0, 1}, fovYDegrees);
  }
  return cameras;
}

}  // namespace pviz::vis
