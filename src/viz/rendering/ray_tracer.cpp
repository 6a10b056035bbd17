#include "viz/rendering/ray_tracer.h"

#include <atomic>
#include <cmath>
#include <optional>

#include "util/exec_context.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/pixel_tiles.h"

namespace pviz::vis {

RayTracer::Result RayTracer::run(util::ExecutionContext& ctx,
                                 const UniformGrid& grid,
                                 const std::string& fieldName) const {
  Result result;
  result.profile.kernel = "ray-tracing";
  result.profile.elements = grid.numCells();

  // --- Step 1: gather triangles / find external faces (data intensive).
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "gather-external-faces");
  ExternalFacesResult faces = extractExternalFaces(ctx, grid, fieldName);
  const TriangleMesh& mesh = faces.mesh;
  result.trianglesRendered = mesh.numTriangles();

  // --- Step 2: build the spatial acceleration structure.
  phase.emplace(ctx, "bvh-build");
  Bvh bvh(ctx, mesh);
  phase.emplace(ctx, "trace");

  // --- Step 3: trace rays from the orbiting cameras.
  const auto [scalarLo, scalarHi] = grid.field(fieldName).range();
  const ColorTable colors = ColorTable::coolToWarm();
  const std::vector<Camera> cameras =
      cameraOrbit(grid.bounds(), cameraCount_);

  // Headlight Lambertian shading of a hit, colored by the scalar
  // interpolated at the hit point.
  const auto shade = [&](const Ray& ray, const TriangleHit& hit) -> Color {
    const std::size_t base = static_cast<std::size_t>(3 * hit.triangle);
    const auto i0 = static_cast<std::size_t>(mesh.connectivity[base]);
    const auto i1 = static_cast<std::size_t>(mesh.connectivity[base + 1]);
    const auto i2 = static_cast<std::size_t>(mesh.connectivity[base + 2]);
    const double s = mesh.pointScalars[i0] * (1.0 - hit.u - hit.v) +
                     mesh.pointScalars[i1] * hit.u +
                     mesh.pointScalars[i2] * hit.v;
    const Vec3& a = mesh.points[i0];
    const Vec3& b = mesh.points[i1];
    const Vec3& c = mesh.points[i2];
    const Vec3 normal = normalize(cross(b - a, c - a));
    const double lambert = 0.2 + 0.8 * std::abs(dot(normal, ray.direction));
    Color color = colors.sampleRange(s, scalarLo, scalarHi) * lambert;
    color.a = 1.0;
    return color;
  };

  std::atomic<std::int64_t> raysHit{0};
  std::atomic<std::int64_t> nodesVisited{0};
  std::atomic<std::int64_t> trisTested{0};

  for (int cam = 0; cam < cameraCount_; ++cam) {
    ctx.cancel().throwIfCancelled();  // per-camera cancellation point
    // Only a kept camera gets an image; the others still trace every
    // ray, for raysHit and the traversal counts, but shade nothing.
    Image* image = cam == 0 || !keepFirstOnly_
                       ? &result.images.emplace_back(width_, height_)
                       : nullptr;
    const Camera& camera = cameras[static_cast<std::size_t>(cam)];
    forEachPixelTile(ctx, width_, height_, [&](const PixelTile& tile) {
      TraversalStats stats;
      std::int64_t localHits = 0;
      for (int y = tile.y0; y < tile.y1; ++y) {
        for (int x = tile.x0; x < tile.x1; ++x) {
          const Ray ray = camera.pixelRay(x, y, width_, height_);
          const TriangleHit hit = bvh.intersect(ray, &stats);
          if (hit.hit()) ++localHits;
          if (image != nullptr) {
            image->at(x, y) = hit.hit() ? shade(ray, hit) : Color{0, 0, 0, 0};
          }
        }
      }
      raysHit.fetch_add(localHits, std::memory_order_relaxed);
      nodesVisited.fetch_add(stats.nodesVisited, std::memory_order_relaxed);
      trisTested.fetch_add(stats.trianglesTested, std::memory_order_relaxed);
    });
  }
  phase.reset();
  result.raysTraced =
      static_cast<std::int64_t>(width_) * height_ * cameraCount_;
  result.raysHit = raysHit.load();

  // --- Workload characterization (real counts from this run). -----------
  const double cells = static_cast<double>(faces.cellsScanned);
  const double quads = static_cast<double>(faces.facesFound);
  const double tris = static_cast<double>(mesh.numTriangles());
  const double rays = static_cast<double>(result.raysTraced);
  const double nodes = static_cast<double>(nodesVisited.load());
  const double tests = static_cast<double>(trisTested.load());

  // Gather: VTK-m-style external-face extraction generates a key for
  // all 6 faces of every cell and sorts to find the unmatched ones —
  // streaming key-generation and radix-sort passes (the data-intensive
  // step the paper observes dominating this algorithm).
  WorkProfile& gather = result.profile.addPhase("gather-external-faces");
  gather.flops = cells * 2 + quads * 30;
  gather.intOps = cells * 90 + quads * 60;
  gather.memOps = cells * 34 + quads * 40;
  gather.bytesStreamed = grid.field(fieldName).sizeBytes() +
                         cells * 6 * 16 * 2 +  // face keys, sort passes
                         quads * 4 * 40;
  gather.bytesReused = cells * 60;  // bucket histograms (cache-resident)
  gather.irregularAccesses = cells * 0.2;
  gather.parallelFraction = 0.97;
  gather.overlap = 0.85;

  // BVH build: LBVH-style — morton codes, multi-pass radix sorts, node
  // emission; heavy data movement per triangle.
  const double buildWork = tris * std::max(1.0, std::log2(tris + 1.0));
  WorkProfile& build = result.profile.addPhase("bvh-build");
  build.flops = tris * 60;
  build.intOps = tris * 250 + buildWork * 8;
  build.memOps = tris * 120;
  build.bytesStreamed = tris * 32 * 8;  // key/payload sort passes
  build.bytesReused = buildWork * 24;
  build.irregularAccesses = tris * 2.0;
  build.parallelFraction = 0.6;
  build.overlap = 0.8;

  // Trace: compute-intensive per ray; working set = BVH + triangles.
  WorkProfile& trace = result.profile.addPhase("trace");
  trace.flops = nodes * 24 + tests * 38 + rays * 40;
  trace.intOps = nodes * 14 + tests * 16 + rays * 40;
  trace.memOps = nodes * 6 + tests * 10 + rays * 24;
  trace.bytesStreamed = rays * 32;  // framebuffer writes
  trace.bytesReused = nodes * 64 + tests * 96;
  trace.workingSetBytes =
      static_cast<double>(bvh.nodeCount()) * 64 + tris * 96;
  trace.irregularAccesses = nodes * 0.15;
  trace.parallelFraction = 0.99;
  trace.overlap = 0.6;

  return result;
}

}  // namespace pviz::vis
