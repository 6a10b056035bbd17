#include "core/algorithms.h"

#include <cstdlib>
#include <sstream>

#include "util/exec_context.h"
#include "viz/dataset/multi_block.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/domain.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz::core {

const std::vector<Algorithm>& allAlgorithms() {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::Contour,           Algorithm::Threshold,
      Algorithm::SphericalClip,     Algorithm::Isovolume,
      Algorithm::Slice,             Algorithm::ParticleAdvection,
      Algorithm::RayTracing,        Algorithm::VolumeRendering,
  };
  return algorithms;
}

std::string algorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::Contour: return "Contour";
    case Algorithm::Threshold: return "Threshold";
    case Algorithm::SphericalClip: return "Spherical Clip";
    case Algorithm::Isovolume: return "Isovolume";
    case Algorithm::Slice: return "Slice";
    case Algorithm::ParticleAdvection: return "Particle Advection";
    case Algorithm::RayTracing: return "Ray Tracing";
    case Algorithm::VolumeRendering: return "Volume Rendering";
  }
  return "?";
}

std::string algorithmToken(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::Contour: return "contour";
    case Algorithm::Threshold: return "threshold";
    case Algorithm::SphericalClip: return "clip";
    case Algorithm::Isovolume: return "isovolume";
    case Algorithm::Slice: return "slice";
    case Algorithm::ParticleAdvection: return "advection";
    case Algorithm::RayTracing: return "raytracing";
    case Algorithm::VolumeRendering: return "volume";
  }
  return "?";
}

Algorithm parseAlgorithmToken(const std::string& token) {
  for (Algorithm algorithm : allAlgorithms()) {
    if (token == algorithmToken(algorithm)) return algorithm;
  }
  throw Error("unknown algorithm '" + token +
              "' (expected contour threshold clip isovolume slice "
              "advection raytracing volume)");
}

std::vector<Algorithm> parseAlgorithmList(const std::string& csv) {
  if (csv.empty() || csv == "all") return allAlgorithms();
  std::vector<Algorithm> algorithms;
  std::string token;
  std::stringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) algorithms.push_back(parseAlgorithmToken(token));
  }
  PVIZ_REQUIRE(!algorithms.empty(), "algorithm list is empty");
  return algorithms;
}

vis::WorkProfile frameworkOverheadPhase(int launches) {
  PVIZ_REQUIRE(launches >= 0, "launch count must be non-negative");
  // Per worklet dispatch: array allocation/initialization, invocation
  // glue, scheduling — mostly serial, integer-heavy, touching control
  // structures rather than bulk data.  [cal] sized so that 32^3 runs are
  // overhead-dominated and 256^3 runs are not, as the paper's IPC-vs-size
  // curves show.
  vis::WorkProfile overhead;
  overhead.name = "framework-overhead";
  const double n = static_cast<double>(launches);
  overhead.intOps = n * 2.0e6;
  overhead.flops = n * 1.2e5;
  overhead.memOps = n * 1.0e6;
  overhead.bytesStreamed = n * 1.8e6;
  overhead.irregularAccesses = n * 9.0e3;
  overhead.parallelFraction = 0.12;
  overhead.overlap = 0.5;
  return overhead;
}

namespace {

// Field-range helpers shared by the value-based filters.
std::pair<double, double> fieldBand(util::ExecutionContext& ctx,
                                    const vis::Field& field, double loFrac,
                                    double hiFrac) {
  const auto [lo, hi] = field.range(ctx);
  const double span = hi - lo;
  return {lo + loFrac * span, lo + hiFrac * span};
}

vis::Id envId(const char* name, vis::Id fallback, vis::Id lo, vis::Id hi) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  PVIZ_REQUIRE(end != text && *end == '\0',
               std::string(name) + " must be an integer, got '" + text + "'");
  PVIZ_REQUIRE(value >= lo && value <= hi,
               std::string(name) + " out of range [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
  return static_cast<vis::Id>(value);
}

// Configured filters, shared by the single-grid and per-block paths so
// both run literally the same filter objects.  Range-derived settings
// (isovalues, bands, clip sphere) always come from the GLOBAL grid —
// that is part of the block-count-invariance contract.
vis::ContourFilter contourFor(util::ExecutionContext& ctx,
                              const vis::Field& energy,
                              const AlgorithmParams& params) {
  vis::ContourFilter filter;
  filter.setIsovalues(vis::ContourFilter::uniformIsovalues(
      ctx, energy, params.isovalueCount));
  return filter;
}

vis::ThresholdFilter thresholdFor(util::ExecutionContext& ctx,
                                  const vis::Field& energy,
                                  const AlgorithmParams& params) {
  vis::ThresholdFilter filter;
  const auto [lo, hi] = fieldBand(ctx, energy, params.thresholdLoFraction,
                                  params.thresholdHiFraction);
  filter.setRange(lo, hi);
  return filter;
}

vis::ClipSphereFilter clipFor(const vis::UniformGrid& grid,
                              const AlgorithmParams& params) {
  vis::ClipSphereFilter filter;
  const vis::Bounds box = grid.bounds();
  filter.setSphere(box.center(),
                   params.clipRadiusFraction * length(box.extent()));
  return filter;
}

vis::IsovolumeFilter isovolumeFor(util::ExecutionContext& ctx,
                                  const vis::Field& energy,
                                  const AlgorithmParams& params) {
  vis::IsovolumeFilter filter;
  const auto [lo, hi] = fieldBand(ctx, energy, params.isovolumeLoFraction,
                                  params.isovolumeHiFraction);
  filter.setRange(lo, hi);
  return filter;
}

vis::ParticleAdvectionFilter advectionFor(const AlgorithmParams& params) {
  vis::ParticleAdvectionFilter filter;
  filter.setSeedCount(params.seedCount);
  filter.setMaxSteps(params.maxSteps);
  filter.setStepLength(params.stepLength);
  return filter;
}

vis::KernelProfile runOnGrid(util::ExecutionContext& ctx, Algorithm algorithm,
                             const vis::UniformGrid& grid,
                             const AlgorithmParams& params, int& launches) {
  const vis::Field& energy = grid.field("energy");
  vis::KernelProfile profile;

  switch (algorithm) {
    case Algorithm::Contour: {
      profile =
          contourFor(ctx, energy, params).run(ctx, grid, "energy").profile;
      launches = 3 * params.isovalueCount;
      break;
    }
    case Algorithm::Threshold: {
      profile =
          thresholdFor(ctx, energy, params).run(ctx, grid, "energy").profile;
      launches = 3;
      break;
    }
    case Algorithm::SphericalClip: {
      profile = clipFor(grid, params).run(ctx, grid, "energy").profile;
      launches = 5;
      break;
    }
    case Algorithm::Isovolume: {
      profile =
          isovolumeFor(ctx, energy, params).run(ctx, grid, "energy").profile;
      launches = 9;
      break;
    }
    case Algorithm::Slice: {
      vis::SliceFilter filter;  // default: three axis planes
      profile = filter.run(ctx, grid, "energy").profile;
      launches = 12;
      break;
    }
    case Algorithm::ParticleAdvection: {
      vis::ParticleAdvectionFilter filter = advectionFor(params);
      const auto mode =
          vis::ParticleAdvectionFilter::parseMode(params.advectionMode);
      if (mode == vis::ParticleAdvectionFilter::Mode::Pathline) {
        // Unsteady tracing between two pipeline time steps.  The
        // pipeline attaches the previous cycle's velocity as
        // "velocity_prev"; a grid without one (first cycle, or a
        // standalone dataset) degenerates to a steady window.
        const std::string& begin =
            grid.hasField("velocity_prev") ? "velocity_prev" : "velocity";
        profile = filter.run(ctx, grid, begin, "velocity").profile;
      } else {
        profile = filter.run(ctx, grid, "velocity").profile;
      }
      launches = 2;
      break;
    }
    case Algorithm::RayTracing: {
      vis::RayTracer tracer;
      const int sampled = params.effectiveSampledCameras();
      tracer.setCameraCount(sampled);
      tracer.setImageSize(params.imageWidth, params.imageHeight);
      profile = tracer.run(ctx, grid, "energy").profile;
      // Per-camera trace work extrapolates to the full image database;
      // face gathering and BVH construction happen once per cycle.
      const double scale =
          static_cast<double>(params.cameraCount) / sampled;
      for (auto& phase : profile.phases) {
        if (phase.name == "trace") phase.scaleWork(scale);
      }
      launches = 4 + params.cameraCount;
      break;
    }
    case Algorithm::VolumeRendering: {
      vis::VolumeRenderer renderer;
      const int sampled = params.effectiveSampledCameras();
      renderer.setCameraCount(sampled);
      renderer.setImageSize(params.imageWidth, params.imageHeight);
      profile = renderer.run(ctx, grid, "energy").profile;
      const double scale =
          static_cast<double>(params.cameraCount) / sampled;
      for (auto& phase : profile.phases) {
        if (phase.name == "ray-march") phase.scaleWork(scale);
      }
      launches = params.cameraCount;
      break;
    }
  }
  return profile;
}

vis::KernelProfile runOnDomain(util::ExecutionContext& ctx,
                               Algorithm algorithm,
                               vis::MultiBlockGrid& domain,
                               const vis::UniformGrid& grid,
                               const AlgorithmParams& params, int& launches) {
  const vis::Field& energy = grid.field("energy");
  switch (algorithm) {
    case Algorithm::Contour:
      launches = 3 * params.isovalueCount;
      return vis::runContour(ctx, domain, contourFor(ctx, energy, params),
                             "energy")
          .profile;
    case Algorithm::Threshold:
      launches = 3;
      return vis::runThreshold(ctx, domain, thresholdFor(ctx, energy, params),
                               "energy")
          .profile;
    case Algorithm::SphericalClip:
      launches = 5;
      return vis::runClipSphere(ctx, domain, clipFor(grid, params), "energy")
          .profile;
    case Algorithm::Isovolume:
      launches = 9;
      return vis::runIsovolume(ctx, domain, isovolumeFor(ctx, energy, params),
                               "energy")
          .profile;
    case Algorithm::Slice: {
      launches = 12;
      vis::SliceFilter filter;  // default: three axis planes
      return vis::runSlice(ctx, domain, filter, "energy").profile;
    }
    default: {
      // Globally-traversing algorithms (advection crosses seams,
      // rendering walks the whole mesh): gather the owned views back
      // into the bitwise-identical global grid and run unchanged.
      vis::UniformGrid stitched;
      {
        auto stitchScope = ctx.phase("block-stitch");
        stitched = domain.stitchGlobal(ctx);
      }
      vis::KernelProfile profile =
          runOnGrid(ctx, algorithm, stitched, params, launches);
      profile.phases.push_back(
          vis::blockStitchPhase(domain.lastStitch().bytes));
      return profile;
    }
  }
}

}  // namespace

vis::Id defaultBlockCount() {
  static const vis::Id value = envId("POWERVIZ_BLOCKS", 1, 1, 4096);
  return value;
}

vis::Id defaultGhostLayers() {
  static const vis::Id value = envId("POWERVIZ_GHOST", 1, 1, 8);
  return value;
}

vis::KernelProfile runAlgorithm(util::ExecutionContext& ctx,
                                Algorithm algorithm,
                                const vis::UniformGrid& grid,
                                const AlgorithmParams& params) {
  vis::KernelProfile profile;
  int launches = 0;

  if (params.blockCount > 1) {
    vis::MultiBlockGrid domain = vis::MultiBlockGrid::partition(
        grid, params.blockCount, params.ghostLayers);
    {
      auto exchangeScope = ctx.phase("ghost-exchange");
      domain.exchangeGhosts(ctx);
    }
    profile = runOnDomain(ctx, algorithm, domain, grid, params, launches);
    profile.phases.push_back(vis::ghostExchangePhase(domain.lastExchange()));
  } else {
    profile = runOnGrid(ctx, algorithm, grid, params, launches);
  }

  profile.phases.push_back(frameworkOverheadPhase(launches));
  return profile;
}

}  // namespace pviz::core
