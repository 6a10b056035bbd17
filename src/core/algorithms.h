// The study's eight visualization algorithms behind one interface.
//
// Each algorithm runs for real on a dataset (producing geometry or
// images) and returns the KernelProfile characterizing that execution.
// Parameters default to the paper's configuration (10 isovalues, three
// axis slices, 1000 seeds x 1000 RK4 steps, an image database per
// rendering cycle); tests and benches shrink the rendering load via
// AlgorithmParams where host time matters — the profile always reflects
// what actually ran.
//
// A per-worklet-launch framework overhead phase (allocation, dispatch,
// serial glue — the cost VTK-m pays around every worklet) is appended to
// every profile; it is what dominates small datasets and produces the
// paper's low IPC readings at 32^3.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::core {

/// The study's algorithm set, in the paper's Fig. 1 order.
enum class Algorithm {
  Contour,
  Threshold,
  SphericalClip,
  Isovolume,
  Slice,
  ParticleAdvection,
  RayTracing,
  VolumeRendering,
};

/// All eight, iteration-ordered.
const std::vector<Algorithm>& allAlgorithms();

/// Paper-facing display name ("Contour", "Spherical Clip", ...).
std::string algorithmName(Algorithm algorithm);

/// CLI/protocol token ("contour", "clip", "raytracing", ...): the inverse
/// of parseAlgorithmToken, stable across releases.
std::string algorithmToken(Algorithm algorithm);

/// Parse a CLI/protocol algorithm token; throws pviz::Error naming the
/// token when it matches no algorithm.
Algorithm parseAlgorithmToken(const std::string& token);

/// Parse a comma-separated algorithm list; "all" (or an empty string)
/// selects all eight.  Throws pviz::Error on an unknown name.
std::vector<Algorithm> parseAlgorithmList(const std::string& csv);

/// Process-default multi-block decomposition, read once from
/// POWERVIZ_BLOCKS / POWERVIZ_GHOST (1 block, 1 ghost layer when
/// unset).  Mirrors the POWERVIZ_BACKEND precedence: an explicit
/// request/CLI value always overrides the environment.
vis::Id defaultBlockCount();
vis::Id defaultGhostLayers();

struct AlgorithmParams {
  // Contour.
  int isovalueCount = 10;
  // Threshold: central band of the field range [loQ, hiQ].
  double thresholdLoFraction = 0.55;
  double thresholdHiFraction = 0.95;
  // Spherical clip.
  double clipRadiusFraction = 0.3;  ///< of the domain diagonal
  // Isovolume band of the field range.
  double isovolumeLoFraction = 0.4;
  double isovolumeHiFraction = 0.8;
  // Particle advection (paper: constant regardless of dataset size).
  vis::Id seedCount = 1000;
  vis::Id maxSteps = 1000;
  double stepLength = 0.001;
  /// "streamline" (steady flow) or "pathline" (unsteady: interpolates
  /// between the "velocity_prev" and "velocity" fields when the grid
  /// carries both; degenerates to a steady window otherwise).
  std::string advectionMode = "streamline";
  // Rendering (paper: an image database of 50 images per cycle).
  int cameraCount = 50;
  int imageWidth = 512;
  int imageHeight = 512;
  /// Cameras actually traced on the host; the per-camera phases of the
  /// profile are scaled by cameraCount / sampledCameraCount (per-camera
  /// work is identical, so the extrapolation is exact up to view
  /// variation).  0 = trace all cameraCount cameras.
  int sampledCameraCount = 8;
  /// Multi-block decomposition: >1 partitions the dataset into k-slabs
  /// with ghost-zone exchange and runs the cell-local filters per block
  /// (globally-traversing algorithms run on the stitched grid).  Every
  /// output is bit-identical to the single-block run; the profile gains
  /// ghost-exchange / block-stitch phases.
  vis::Id blockCount = defaultBlockCount();
  /// Ghost cell planes per block side (>= 1; a block's top point plane
  /// travels through the exchange).
  vis::Id ghostLayers = defaultGhostLayers();

  int effectiveSampledCameras() const {
    if (sampledCameraCount <= 0 || sampledCameraCount > cameraCount) {
      return cameraCount;
    }
    return sampledCameraCount;
  }

  /// Reduced rendering load for tests: few cameras, small images.
  static AlgorithmParams lightRendering() {
    AlgorithmParams p;
    p.cameraCount = 4;
    p.sampledCameraCount = 4;
    p.imageWidth = 128;
    p.imageHeight = 128;
    return p;
  }
};

/// Run `algorithm` on `grid` (expects point fields "energy" and
/// "velocity") and return the profile of the work that executed.  The
/// context supplies the thread pool, scratch arena, cancellation token
/// (polled at phase and chunk boundaries), and phase tracer.
vis::KernelProfile runAlgorithm(util::ExecutionContext& ctx,
                                Algorithm algorithm,
                                const vis::UniformGrid& grid,
                                const AlgorithmParams& params = {});

/// The framework-overhead phase for `launches` worklet dispatches;
/// exposed for tests.
vis::WorkProfile frameworkOverheadPhase(int launches);

}  // namespace pviz::core
