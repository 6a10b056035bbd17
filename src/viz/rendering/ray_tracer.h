// Ray tracing renderer.
//
// Per the paper: iterate over image pixels, intersect rays with the
// dataset's external surface through a spatial acceleration structure,
// and color hits by the scalar field.  A visualization cycle renders an
// image database from cameras orbiting the dataset (the study used 50).
//
// The three internal steps — gather/triangulate external faces, build
// the BVH, trace — are profiled as separate phases; the paper finds the
// data-intensive first two dominate the compute-intensive trace, which
// is why ray tracing lands in the power-opportunity class.
#pragma once

#include <string>
#include <vector>

#include "viz/dataset/uniform_grid.h"
#include "viz/rendering/bvh.h"
#include "viz/rendering/color_table.h"
#include "viz/rendering/image.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class RayTracer {
 public:
  struct Result {
    std::vector<Image> images;
    std::int64_t raysTraced = 0;
    std::int64_t raysHit = 0;
    std::int64_t trianglesRendered = 0;
    KernelProfile profile;
  };

  void setImageSize(int width, int height) {
    PVIZ_REQUIRE(width >= 1 && height >= 1, "image size must be positive");
    width_ = width;
    height_ = height;
  }
  void setCameraCount(int count) {
    PVIZ_REQUIRE(count >= 1, "need at least one camera");
    cameraCount_ = count;
  }
  /// Keep only the first image to bound memory (profiling still covers
  /// every camera).  Default on.
  void setKeepFirstImageOnly(bool keep) { keepFirstOnly_ = keep; }

  int width() const { return width_; }
  int height() const { return height_; }
  int cameraCount() const { return cameraCount_; }

  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  int width_ = 512;
  int height_ = 512;
  int cameraCount_ = 50;
  bool keepFirstOnly_ = true;
};

}  // namespace pviz::vis
