#include "viz/rendering/volume_renderer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/exec_context.h"
#include "viz/rendering/camera.h"
#include "viz/rendering/pixel_tiles.h"

namespace pviz::vis {

VolumeRenderer::Result VolumeRenderer::run(util::ExecutionContext& ctx,
                                           const UniformGrid& grid,
                                           const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "volume rendering requires a point scalar field");
  PVIZ_REQUIRE(field.components() == 1,
               "volume rendering requires a scalar field");

  Result result;
  result.profile.kernel = "volume-rendering";
  result.profile.elements = grid.numCells();

  const Bounds box = grid.bounds();
  const double diagonal = length(box.extent());
  const double stepSize = diagonal / samplesAcross_;
  const auto [scalarLo, scalarHi] = field.range();
  const std::vector<Camera> cameras = cameraOrbit(box, cameraCount_);
  // Opacity correction exponent: the step size relative to the reference
  // step of 256 samples across.  At the default samples-across it is
  // exactly 1.0, and pow(x, 1.0) == x, so the per-sample pow is skipped
  // without changing a bit.
  const double opacityExponent = stepSize / (diagonal / 256.0);
  const bool unitExponent = opacityExponent == 1.0;

  // March one ray front to back; `samples` counts the in-grid samples.
  const auto marchRay = [&](const Ray& ray, std::int64_t& samples) -> Color {
    double tNear, tFar;
    if (!intersectBox(ray, box, tNear, tFar)) return {0, 0, 0, 0};
    tNear = std::max(tNear, 0.0);
    Color accum{0, 0, 0, 0};
    for (double t = tNear + 0.5 * stepSize; t < tFar; t += stepSize) {
      double s;
      if (!grid.sampleScalar(field, ray.origin + ray.direction * t, s)) {
        continue;
      }
      ++samples;
      const Color sample = colors_.sampleRange(s, scalarLo, scalarHi);
      // Opacity correction for the step size, then front-to-back
      // "over" compositing with early termination.
      const double alpha =
          unitExponent ? 1.0 - (1.0 - sample.a)
                       : 1.0 - std::pow(1.0 - sample.a, opacityExponent);
      const double weight = (1.0 - accum.a) * alpha;
      accum.r += weight * sample.r;
      accum.g += weight * sample.g;
      accum.b += weight * sample.b;
      accum.a += weight;
      if (accum.a > 0.99) break;
    }
    return accum;
  };

  std::atomic<std::int64_t> samplesTaken{0};

  auto marchPhase = ctx.phase("ray-march");
  for (int cam = 0; cam < cameraCount_; ++cam) {
    ctx.cancel().throwIfCancelled();  // per-camera cancellation point
    // Only a kept camera gets an image; the others still march every
    // ray, for samplesTaken, but store no pixel.
    Image* image = cam == 0 || !keepFirstOnly_
                       ? &result.images.emplace_back(width_, height_)
                       : nullptr;
    const Camera& camera = cameras[static_cast<std::size_t>(cam)];
    forEachPixelTile(ctx, width_, height_, [&](const PixelTile& tile) {
      std::int64_t localSamples = 0;
      for (int y = tile.y0; y < tile.y1; ++y) {
        for (int x = tile.x0; x < tile.x1; ++x) {
          const Color pixel =
              marchRay(camera.pixelRay(x, y, width_, height_), localSamples);
          if (image != nullptr) image->at(x, y) = pixel;
        }
      }
      samplesTaken.fetch_add(localSamples, std::memory_order_relaxed);
    });
  }

  result.raysTraced =
      static_cast<std::int64_t>(width_) * height_ * cameraCount_;
  result.samplesTaken = samplesTaken.load();

  // --- Workload characterization (real counts from this run). -----------
  const double rays = static_cast<double>(result.raysTraced);
  const double samples = static_cast<double>(result.samplesTaken);

  // Ray march: per sample, a trilinear reconstruction (~30 flops), the
  // transfer function, opacity correction (pow) and the blend — a long
  // arithmetic chain per sample.  The gathers walk the scalar volume,
  // whose footprint is the whole field: the cost model decides how much
  // of it lives in cache (this is what makes IPC fall with dataset size).
  WorkProfile& march = result.profile.addPhase("ray-march");
  march.flops = samples * 105 + rays * 40;
  march.intOps = samples * 48 + rays * 30;
  march.memOps = samples * 30 + rays * 16;
  march.bytesReused = samples * 8 * 8;  // corner gathers; cache-resident when the field fits
  march.bytesStreamed = rays * 24;      // framebuffer
  march.workingSetBytes = field.sizeBytes();
  march.irregularAccesses = samples * 0.02;
  march.parallelFraction = 0.995;
  march.overlap = 0.5;  // dependent chain: sample -> classify -> blend
  result.profile.phases.back().name = "ray-march";

  return result;
}

}  // namespace pviz::vis
