// Volume rendering — per-pixel ray marching with front-to-back
// compositing.
//
// Per the paper: rays step through the volume sampling the scalar field
// at regular intervals; each sample maps through a transfer function to
// a color with transparency and all samples along the ray blend into the
// final pixel.  A visualization cycle renders an image database from
// orbiting cameras (the study used 50).
//
// Volume rendering is the study's archetypal compute-bound algorithm:
// high floating-point density per sample, and a working set (the scalar
// field) that fits in the shared cache at small sizes — which is why its
// measured IPC *falls* as the dataset grows (paper Fig. 5).
#pragma once

#include <string>
#include <vector>

#include "viz/dataset/uniform_grid.h"
#include "viz/rendering/color_table.h"
#include "viz/rendering/image.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class VolumeRenderer {
 public:
  struct Result {
    std::vector<Image> images;
    std::int64_t raysTraced = 0;
    std::int64_t samplesTaken = 0;
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
  /// Number of sample steps across the volume diagonal.
  void setSamplesAcross(int samples) {
    PVIZ_REQUIRE(samples >= 2, "need at least two samples across");
    samplesAcross_ = samples;
  }
  void setColorTable(ColorTable table) { colors_ = std::move(table); }
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
  int samplesAcross_ = 256;
  ColorTable colors_ = ColorTable::rainbowVolume();
  bool keepFirstOnly_ = true;
};

}  // namespace pviz::vis
