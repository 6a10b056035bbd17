// Image database scenario (the paper's Fig. 1): run all eight study
// algorithms on a CloverLeaf dataset and write one rendered image per
// algorithm as a PPM.  Geometry-producing filters are rendered with the
// ray tracer; the two renderers write their own output directly.
//
//   $ ./image_database [cells-per-axis=48]   -> fig1_*.ppm in the CWD
#include <iostream>
#include <string>

#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "viz/dataset/geometry_conversion.h"
#include "util/log.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/bvh.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace {

using namespace pviz;
using vis::Id;
using vis::TriangleMesh;
using vis::Vec3;

constexpr int kImage = 400;

// Render a triangle mesh with the scene camera and a cool-to-warm map.
void renderMesh(util::ExecutionContext& ctx, const TriangleMesh& mesh,
                const vis::Bounds& sceneBounds, double scalarLo,
                double scalarHi, const std::string& path) {
  if (mesh.numTriangles() == 0) {
    PVIZ_LOG_WARN("no geometry for " << path);
    return;
  }
  const vis::Bvh bvh(ctx, mesh);
  const auto cameras = vis::cameraOrbit(sceneBounds, 8);
  const vis::Camera& camera = cameras[1];
  const vis::ColorTable colors = vis::ColorTable::coolToWarm();
  vis::Image image(kImage, kImage);
  for (int y = 0; y < kImage; ++y) {
    for (int x = 0; x < kImage; ++x) {
      const vis::Ray ray = camera.pixelRay(x, y, kImage, kImage);
      const vis::TriangleHit hit = bvh.intersect(ray);
      if (!hit.hit()) {
        image.at(x, y) = {1, 1, 1, 1};  // white background
        continue;
      }
      const std::size_t base = static_cast<std::size_t>(3 * hit.triangle);
      const double s =
          mesh.pointScalars[static_cast<std::size_t>(
              mesh.connectivity[base])] *
              (1.0 - hit.u - hit.v) +
          mesh.pointScalars[static_cast<std::size_t>(
              mesh.connectivity[base + 1])] *
              hit.u +
          mesh.pointScalars[static_cast<std::size_t>(
              mesh.connectivity[base + 2])] *
              hit.v;
      const Vec3& a = mesh.points[static_cast<std::size_t>(
          mesh.connectivity[base])];
      const Vec3& b = mesh.points[static_cast<std::size_t>(
          mesh.connectivity[base + 1])];
      const Vec3& c = mesh.points[static_cast<std::size_t>(
          mesh.connectivity[base + 2])];
      const Vec3 normal = normalize(cross(b - a, c - a));
      const double lambert =
          0.35 + 0.65 * std::abs(dot(normal, ray.direction));
      vis::Color color =
          colors.sampleRange(s, scalarLo, scalarHi) * lambert;
      color.a = 1.0;
      image.at(x, y) = color;
    }
  }
  image.writePpm(path);
  std::cout << "wrote " << path << " (" << mesh.numTriangles()
            << " triangles)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Id cells = argc > 1 ? std::atoi(argv[1]) : 48;
  std::cout << "building " << cells << "^3 CloverLeaf-like dataset...\n";
  // One context for the dataset and all eight kernels: the scratch arena
  // warmed by the first filter serves the rest.
  util::ExecutionContext ctx;
  const vis::UniformGrid g = sim::makeCloverField(ctx, cells);
  const vis::Bounds bounds = g.bounds();
  const auto [lo, hi] = g.field("energy").range();

  {  // (a) contour
    ctx.beginRun();
    vis::ContourFilter filter;
    filter.setIsovalues(
        vis::ContourFilter::uniformIsovalues(g.field("energy"), 3));
    renderMesh(ctx, filter.run(ctx, g, "energy").surface, bounds, lo, hi,
               "fig1a_contour.ppm");
  }
  {  // (b) threshold
    ctx.beginRun();
    vis::ThresholdFilter filter;
    filter.setRange(lo + 0.55 * (hi - lo), hi);
    renderMesh(ctx, hexSubsetToTriangles(g, filter.run(ctx, g, "energy").kept), bounds, lo, hi,
               "fig1b_threshold.ppm");
  }
  {  // (c) spherical clip
    ctx.beginRun();
    vis::ClipSphereFilter filter;
    filter.setSphere(bounds.center(), 0.3 * length(bounds.extent()));
    const auto result = filter.run(ctx, g, "energy");
    TriangleMesh mesh = hexSubsetToTriangles(g, result.clipped.wholeCells);
    mesh.append(tetMeshToTriangles(result.clipped.cutPieces));
    renderMesh(ctx, mesh, bounds, lo, hi, "fig1c_spherical_clip.ppm");
  }
  {  // (d) isovolume
    ctx.beginRun();
    vis::IsovolumeFilter filter;
    filter.setRange(lo + 0.4 * (hi - lo), lo + 0.8 * (hi - lo));
    const auto result = filter.run(ctx, g, "energy");
    TriangleMesh mesh = hexSubsetToTriangles(g, result.wholeCells);
    mesh.append(tetMeshToTriangles(result.cutPieces));
    renderMesh(ctx, mesh, bounds, lo, hi, "fig1d_isovolume.ppm");
  }
  {  // (e) slice
    ctx.beginRun();
    vis::SliceFilter filter;
    renderMesh(ctx, filter.run(ctx, g, "energy").surface, bounds, lo, hi,
               "fig1e_slice.ppm");
  }
  {  // (f) particle advection
    ctx.beginRun();
    vis::ParticleAdvectionFilter filter;
    filter.setSeedCount(300);
    filter.setMaxSteps(400);
    filter.setStepLength(0.004);
    const auto result = filter.run(ctx, g, "velocity");
    renderMesh(ctx, polylinesToTriangles(result.streamlines, 0.004), bounds, 0.0,
               400 * 0.004, "fig1f_particle_advection.ppm");
  }
  {  // (g) ray tracing
    ctx.beginRun();
    vis::RayTracer tracer;
    tracer.setImageSize(kImage, kImage);
    tracer.setCameraCount(2);
    tracer.setKeepFirstImageOnly(true);
    tracer.run(ctx, g, "energy").images.front().writePpm("fig1g_ray_tracing.ppm");
    std::cout << "wrote fig1g_ray_tracing.ppm\n";
  }
  {  // (h) volume rendering
    ctx.beginRun();
    vis::VolumeRenderer renderer;
    renderer.setImageSize(kImage, kImage);
    renderer.setCameraCount(2);
    renderer.run(ctx, g, "energy").images.front().writePpm(
        "fig1h_volume_rendering.ppm");
    std::cout << "wrote fig1h_volume_rendering.ppm\n";
  }
  std::cout << "done — eight renderings, one per study algorithm "
               "(paper Fig. 1)\n";
  return 0;
}
