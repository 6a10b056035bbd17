// Google-benchmark microbenchmarks of the host-side kernels themselves
// (wall-clock on this machine, not the modeled package).  Useful for
// tracking regressions in the actual implementations and for the
// BVH-vs-brute-force ablation the DESIGN calls out.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>

#include "core/algorithms.h"
#include "sim/cloverleaf.h"
#include "util/parallel.h"
#include "telemetry/energy_attribution.h"
#include "telemetry/event_ring.h"
#include "telemetry/metric_registry.h"
#include "telemetry/slo_tracker.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/mc_tables.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/bvh.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace {

using namespace pviz;

const vis::UniformGrid& grid(vis::Id size) {
  static std::map<vis::Id, vis::UniformGrid> cache;
  auto it = cache.find(size);
  if (it == cache.end()) {
    util::ExecutionContext ctx;
    it = cache.emplace(size, sim::makeCloverField(ctx, size)).first;
  }
  return it->second;
}

void BM_McTableGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(&vis::McTables::instance());
  }
}
BENCHMARK(BM_McTableGeneration);

// The dataset build every study request pays before its kernel: the
// two point fields are sized unwritten and first touched by the
// parallel fill.
void BM_MakeCloverField(benchmark::State& state) {
  util::ExecutionContext ctx;
  for (auto _ : state) {
    const vis::UniformGrid g = sim::makeCloverField(ctx, state.range(0));
    benchmark::DoNotOptimize(g.field("energy").data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          vis::UniformGrid::cube(state.range(0)).numPoints());
}
BENCHMARK(BM_MakeCloverField)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_Contour(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  vis::ContourFilter filter;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 3));
  for (auto _ : state) {
    util::ExecutionContext cold;  // a fresh context per run
    benchmark::DoNotOptimize(
        filter.run(cold, g, "energy").surface.numTriangles());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells() * 3);
}
BENCHMARK(BM_Contour)->Arg(16)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The same kernel over one persistent ExecutionContext.  The plain
// BM_Contour above builds a fresh context every run.  Blocks of at least
// util::kPagePoolFloor come from the process-wide page pool either way,
// so the two differ only by the context's construction; compare them at
// the same size to see that cost.
void BM_ContourArenaReuse(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  vis::ContourFilter filter;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 3));
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        filter.run(ctx, g, "energy").surface.numTriangles());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells() * 3);
}
BENCHMARK(BM_ContourArenaReuse)->Arg(16)->Arg(32);

// Multi-block decomposition cost at paper sizes: the full algorithm-layer
// path (partition → ghost exchange → per-block contour → gather) through
// core::runAlgorithm.  Rows land in BENCH_kernels.json as
// BM_ContourBlocks/<blocks>/<size> and fold into the `blocks` table;
// blocks=1 is the undecomposed reference the overhead column divides by.
// Outputs are bit-identical across rows (the golden multi-block suite
// pins that), so this isolates the pure decomposition overhead.
void BM_ContourBlocks(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(1));
  core::AlgorithmParams params;
  params.blockCount = state.range(0);
  params.ghostLayers = 1;
  util::ExecutionContext ctx;
  for (auto _ : state) {
    ctx.beginRun();
    const vis::KernelProfile profile =
        core::runAlgorithm(ctx, core::Algorithm::Contour, g, params);
    benchmark::DoNotOptimize(profile.phases.size());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_ContourBlocks)
    ->Args({1, 128})
    ->Args({2, 128})
    ->Args({4, 128})
    ->Args({8, 128})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({4, 256})
    ->Args({8, 256})
    ->Unit(benchmark::kMillisecond);

void BM_Threshold(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::ThresholdFilter filter;
  filter.setRange(1.2, 2.2);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(filter.run(cold, g, "energy").kept.numCells());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_Threshold)->Arg(16)->Arg(32);

void BM_ClipSphere(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(
        filter.run(cold, g, "energy").clipped.cutPieces.numTets());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_ClipSphere)->Arg(16)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_Isovolume(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::IsovolumeFilter filter;
  filter.setRange(1.3, 2.1);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(
        filter.run(cold, g, "energy").cutPieces.numTets());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_Isovolume)->Arg(16)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_Slice(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::SliceFilter filter;
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(
        filter.run(cold, g, "energy").surface.numTriangles());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_Slice)->Arg(16)->Arg(32);

void BM_ParticleAdvection(benchmark::State& state) {
  const vis::UniformGrid& g = grid(24);
  vis::ParticleAdvectionFilter filter;
  filter.setSeedCount(state.range(0));
  filter.setMaxSteps(200);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(filter.run(cold, g, "velocity").totalSteps);
  }
}
BENCHMARK(BM_ParticleAdvection)->Arg(100)->Arg(400);

// --- Flow workload: advection at scale --------------------------------
//
// An early-termination-heavy field: a thin vortex core traps a small
// fraction of the seeds for the full integration while the radial
// outflow ejects everyone else within a couple dozen steps.  That skew
// is the worst case for static chunking: whichever chunk drew the core
// serializes the tail.  `legacy` is a bench-local replica of the
// pre-SoA pipeline (one growing polyline buffer per chunk, merged under
// a mutex) over the exact same counter-based seeds, so the two columns
// separate the pipeline effect.  Rows land in BENCH_kernels.json as a
// dedicated `flow` table.
const vis::UniformGrid& vortexTrapGrid() {
  static const vis::UniformGrid g = [] {
    vis::UniformGrid grid({33, 33, 33}, {0.0, 0.0, 0.0},
                          {1.0 / 32.0, 1.0 / 32.0, 1.0 / 32.0});
    vis::Field f = vis::Field::zeros("velocity", vis::Association::Points, 3,
                                     grid.numPoints());
    for (vis::Id p = 0; p < grid.numPoints(); ++p) {
      const vis::Vec3 d = grid.pointPosition(p) - vis::Vec3{0.5, 0.5, 0.5};
      const double r = std::sqrt(d.x * d.x + d.y * d.y);
      if (r < 0.15) {
        f.setVec3(p, {-d.y * 4.0, d.x * 4.0, 0.0});  // trapped orbit
      } else {
        const double s = 3.0 / std::max(r, 1e-9);
        f.setVec3(p, {d.x * s, d.y * s, 0.0});  // fast radial ejection
      }
    }
    grid.addField(std::move(f));
    return grid;
  }();
  return g;
}

constexpr vis::Id kFlowMaxSteps = 256;
constexpr double kFlowStepLength = 0.01;
constexpr std::uint64_t kFlowRngSeed = 42;

// The pre-SoA pipeline, verbatim in shape: chunked parallel-for,
// a growing PolylineSet per chunk, mutex-guarded merge, final stitch.
// Seeds come from the filter's counter-based generator so every column
// advects the identical particle set.
std::int64_t legacyAdvect(util::ExecutionContext& ctx,
                          const vis::UniformGrid& grid, vis::Id seeds) {
  const vis::Field& field = grid.field("velocity");
  const vis::Bounds box = grid.bounds();
  std::atomic<std::int64_t> totalSteps{0};
  std::mutex mergeMutex;
  std::vector<std::pair<vis::Id, vis::PolylineSet>> partials;
  util::parallelForChunks(
      ctx, 0, seeds,
      [&](vis::Id chunkBegin, vis::Id chunkEnd) {
        vis::PolylineSet local;
        std::int64_t localSteps = 0;
        for (vis::Id p = chunkBegin; p < chunkEnd; ++p) {
          vis::Vec3 x = vis::ParticleAdvectionFilter::seedPosition(
              box, kFlowRngSeed, p);
          local.points.push_back(x);
          local.pointScalars.push_back(0.0);
          const double h = kFlowStepLength;
          vis::Id step = 0;
          for (; step < kFlowMaxSteps; ++step) {
            vis::Vec3 k1, k2, k3, k4;
            if (!grid.sampleVector(field, x, k1)) break;
            if (!grid.sampleVector(field, x + k1 * (h * 0.5), k2)) break;
            if (!grid.sampleVector(field, x + k2 * (h * 0.5), k3)) break;
            if (!grid.sampleVector(field, x + k3 * h, k4)) break;
            x += (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0);
            if (!box.contains(x)) break;
            local.points.push_back(x);
            local.pointScalars.push_back(static_cast<double>(step + 1) * h);
          }
          localSteps += step;
          local.offsets.push_back(static_cast<vis::Id>(local.points.size()));
        }
        totalSteps.fetch_add(localSteps, std::memory_order_relaxed);
        std::lock_guard lock(mergeMutex);
        partials.emplace_back(chunkBegin, std::move(local));
      },
      /*grain=*/16);
  std::sort(partials.begin(), partials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  vis::PolylineSet merged;
  for (auto& [first, local] : partials) {
    (void)first;
    const vis::Id base = static_cast<vis::Id>(merged.points.size());
    merged.points.insert(merged.points.end(), local.points.begin(),
                         local.points.end());
    merged.pointScalars.insert(merged.pointScalars.end(),
                               local.pointScalars.begin(),
                               local.pointScalars.end());
    for (std::size_t l = 1; l < local.offsets.size(); ++l) {
      merged.offsets.push_back(base + local.offsets[l]);
    }
  }
  benchmark::DoNotOptimize(merged.points.data());
  return totalSteps.load();
}

enum class FlowColumn { Legacy, StaticChunk };

void BM_AdvectFlow(benchmark::State& state, FlowColumn column) {
  const vis::UniformGrid& g = vortexTrapGrid();
  const vis::Id seeds = state.range(0);
  vis::ParticleAdvectionFilter filter;
  filter.setSeedCount(seeds);
  filter.setMaxSteps(kFlowMaxSteps);
  filter.setStepLength(kFlowStepLength);
  filter.setSeedRngSeed(kFlowRngSeed);
  util::ExecutionContext ctx;
  std::int64_t steps = 0;
  for (auto _ : state) {
    ctx.beginRun();
    if (column == FlowColumn::Legacy) {
      steps += legacyAdvect(ctx, g, seeds);
    } else {
      steps += filter.run(ctx, g, "velocity").totalSteps;
    }
  }
  state.SetItemsProcessed(steps);  // items/s == RK4 steps/s
}
BENCHMARK_CAPTURE(BM_AdvectFlow, legacy, FlowColumn::Legacy)
    ->Arg(1000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AdvectFlow, static, FlowColumn::StaticChunk)
    ->Arg(1000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_ExternalFaces(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(
        vis::extractExternalFaces(cold, g, "energy").facesFound);
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_ExternalFaces)->Arg(16)->Arg(32);

// Arena-reuse counterpart of BM_ExternalFaces (see BM_ContourArenaReuse).
void BM_ExternalFacesArenaReuse(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        vis::extractExternalFaces(ctx, g, "energy").facesFound);
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK(BM_ExternalFacesArenaReuse)->Arg(16)->Arg(32);

// --- Backend comparison ---------------------------------------------
//
// The same kernel pinned to each execution backend (see DESIGN §11) at
// the study-scale 128³/256³ tiers.  Both backends run the same inner
// loop and are bit-identical, so the delta is pure dispatch cost: serial
// on the calling thread vs chunks over the pool.  Names land in
// BENCH_kernels.json as BM_<Kernel>Backend/<backend>/<size> — the
// per-backend columns the bench table in the README is built from.

void BM_ContourBackend(benchmark::State& state, exec::BackendKind kind) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  vis::ContourFilter filter;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 3));
  ctx.setBackend(kind);
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        filter.run(ctx, g, "energy").surface.numTriangles());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells() * 3);
}
BENCHMARK_CAPTURE(BM_ContourBackend, serial, exec::BackendKind::Serial)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ContourBackend, threaded, exec::BackendKind::Threaded)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ThresholdBackend(benchmark::State& state, exec::BackendKind kind) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::ThresholdFilter filter;
  filter.setRange(1.2, 2.2);
  util::ExecutionContext ctx;
  ctx.setBackend(kind);
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(filter.run(ctx, g, "energy").kept.numCells());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK_CAPTURE(BM_ThresholdBackend, serial, exec::BackendKind::Serial)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ThresholdBackend, threaded, exec::BackendKind::Threaded)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ExternalFacesBackend(benchmark::State& state,
                             exec::BackendKind kind) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  ctx.setBackend(kind);
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        vis::extractExternalFaces(ctx, g, "energy").facesFound);
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK_CAPTURE(BM_ExternalFacesBackend, serial, exec::BackendKind::Serial)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExternalFacesBackend, threaded,
                  exec::BackendKind::Threaded)
    ->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_ClipSphereBackend(benchmark::State& state, exec::BackendKind kind) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  util::ExecutionContext ctx;
  ctx.setBackend(kind);
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        filter.run(ctx, g, "energy").clipped.cutPieces.numTets());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells());
}
BENCHMARK_CAPTURE(BM_ClipSphereBackend, serial, exec::BackendKind::Serial)
    ->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClipSphereBackend, threaded, exec::BackendKind::Threaded)
    ->Arg(128)->Unit(benchmark::kMillisecond);

void BM_BvhBuild(benchmark::State& state) {
  util::ExecutionContext ctx;
  const vis::TriangleMesh mesh =
      vis::extractExternalFaces(ctx, grid(state.range(0)), "energy").mesh;
  for (auto _ : state) {
    util::ExecutionContext cold;
    vis::Bvh bvh(cold, mesh);
    benchmark::DoNotOptimize(bvh.nodeCount());
  }
  state.SetItemsProcessed(state.iterations() * mesh.numTriangles());
}
BENCHMARK(BM_BvhBuild)->Arg(16)->Arg(32);

// Ablation: BVH traversal vs brute force — the reason ray tracers carry
// a spatial acceleration structure.
void BM_TraceWithBvh(benchmark::State& state) {
  const vis::UniformGrid& g = grid(16);
  util::ExecutionContext ctx;
  const vis::TriangleMesh mesh =
      vis::extractExternalFaces(ctx, g, "energy").mesh;
  const vis::Bvh bvh(ctx, mesh);
  const auto cameras = vis::cameraOrbit(g.bounds(), 1);
  std::int64_t hits = 0;
  for (auto _ : state) {
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        hits += bvh.intersect(cameras[0].pixelRay(x, y, 32, 32)).hit();
      }
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_TraceWithBvh);

void BM_TraceBruteForce(benchmark::State& state) {
  const vis::UniformGrid& g = grid(16);
  util::ExecutionContext ctx;
  const vis::TriangleMesh mesh =
      vis::extractExternalFaces(ctx, g, "energy").mesh;
  const vis::Bvh bvh(ctx, mesh);
  const auto cameras = vis::cameraOrbit(g.bounds(), 1);
  std::int64_t hits = 0;
  for (auto _ : state) {
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        hits += bvh.intersectBruteForce(cameras[0].pixelRay(x, y, 32, 32))
                    .hit();
      }
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_TraceBruteForce);

void BM_VolumeRender(benchmark::State& state) {
  const vis::UniformGrid& g = grid(24);
  vis::VolumeRenderer renderer;
  renderer.setImageSize(64, 64);
  renderer.setCameraCount(1);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(renderer.run(cold, g, "energy").samplesTaken);
  }
}
BENCHMARK(BM_VolumeRender);

// The study's volume-rendering shape: 128³, eight orbit cameras at 512²,
// default samples-across (the ray-march's opacity exponent is 1.0).
void BM_VolumeRenderStudy(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::VolumeRenderer renderer;
  renderer.setImageSize(512, 512);
  renderer.setCameraCount(8);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(renderer.run(cold, g, "energy").samplesTaken);
  }
}
BENCHMARK(BM_VolumeRenderStudy)->Arg(128)->Unit(benchmark::kMillisecond);

// The study's ray-tracing shape: 128³, eight orbit cameras at 512²
// (external faces, BVH build and trace; the study keeps one image).
void BM_RayTraceStudy(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  vis::RayTracer tracer;
  tracer.setImageSize(512, 512);
  tracer.setCameraCount(8);
  for (auto _ : state) {
    util::ExecutionContext cold;
    benchmark::DoNotOptimize(tracer.run(cold, g, "energy").raysHit);
  }
}
BENCHMARK(BM_RayTraceStudy)->Arg(128)->Unit(benchmark::kMillisecond);

// --- Telemetry cost -------------------------------------------------
//
// BM_HistogramRecord is the raw cost of one Histogram::record(): a
// bucket fetch_add, a sum fetch_add, and a max CAS ratchet, all on the
// caller's shard.  The ->Threads(4) variant checks the sharding claim:
// per-thread shards mean the multi-threaded rate should scale, not
// collapse under contention.
void BM_HistogramRecord(benchmark::State& state) {
  static telemetry::MetricRegistry registry;
  telemetry::Histogram& h =
      registry.histogram("bench_record_probe_ms", {},
                         "record() cost probe (bench-only)");
  double value = 1e-3;
  for (auto _ : state) {
    h.record(value);
    // Walk the buckets so the CAS ratchet is exercised, not skipped.
    value *= 1.5;
    if (value > 1e4) value = 1e-3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

// Telemetry overhead on a real kernel (acceptance: ≤ 2 % on contour
// 128³).  Both variants run the kernel through the same persistent
// ExecutionContext; the "On" variant additionally applies the full
// per-request instrumentation stack the service layer uses: a
// PhaseScope, a latency histogram and run counter, an SLO record, an
// energy-attribution bracket, and an event-ring emit on violation.
// The delta between the two at the same size is the telemetry tax,
// and CI gates the On/Idle ratio at 128³.
void BM_ContourTelemetryIdle(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  vis::ContourFilter filter;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 3));
  for (auto _ : state) {
    ctx.beginRun();
    benchmark::DoNotOptimize(
        filter.run(ctx, g, "energy").surface.numTriangles());
  }
  state.SetItemsProcessed(state.iterations() * g.numCells() * 3);
}
BENCHMARK(BM_ContourTelemetryIdle)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_ContourTelemetryOn(benchmark::State& state) {
  const vis::UniformGrid& g = grid(state.range(0));
  util::ExecutionContext ctx;
  vis::ContourFilter filter;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 3));
  static telemetry::MetricRegistry registry;
  telemetry::Histogram& latency = registry.histogram(
      "bench_contour_latency_ms", {}, "contour run latency (bench-only)");
  telemetry::Counter& runs =
      registry.counter("bench_contour_runs_total", {}, "contour runs");
  static telemetry::EnergyAttributor energy(registry);
  static telemetry::EventRing events(256);
  static telemetry::SloTracker slo = [] {
    telemetry::SloTracker tracker;
    tracker.setObjective("study", 1.0);  // most runs violate: worst case
    return tracker;
  }();
  static std::atomic<std::uint64_t> token{1};
  for (auto _ : state) {
    ctx.beginRun();
    const std::uint64_t requestToken =
        token.fetch_add(1, std::memory_order_relaxed);
    energy.beginRequest(requestToken, "study");
    const auto start = std::chrono::steady_clock::now();
    {
      auto scope = ctx.phase("bench/contour");
      benchmark::DoNotOptimize(
          filter.run(ctx, g, "energy").surface.numTriangles());
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    latency.record(elapsed.count());
    runs.inc();
    energy.recordRun(requestToken, "contour", 120.0, 1.0,
                     elapsed.count() / 1000.0);
    energy.endRequest(requestToken);
    if (slo.record("study", elapsed.count(), false)) {
      events.emit(telemetry::EventKind::SlowRequest, "study",
                  "bench violation", elapsed.count());
    }
  }
  state.SetItemsProcessed(state.iterations() * g.numCells() * 3);
}
BENCHMARK(BM_ContourTelemetryOn)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_CloverLeafStep(benchmark::State& state) {
  util::ExecutionContext ctx;
  sim::CloverLeaf clover(ctx, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clover.step(ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_CloverLeafStep)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
