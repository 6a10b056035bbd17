// ExecutionContext: the process page pool behind the scratch arena and
// util::Buffer, cooperative cancellation at phase and chunk boundaries,
// phase tracing, and cache hygiene when a run is cancelled mid-kernel.
//
// The cancellation sweeps use CancelToken::cancelAfterPolls(n) over a
// one-worker pool: polls happen in a deterministic order, so iterating n
// upward cancels the kernel at every successive phase/chunk boundary
// exactly once.  After each cancelled run the arena must report zero
// bytes in use (the ScratchVector unwind released everything) and the
// memo/result caches must be untouched; the first uncancelled run must
// produce output bit-identical to a run on a fresh context.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "golden_digest.h"
#include "service/engine.h"
#include "service/metrics.h"
#include "sim/cloverleaf.h"
#include "util/buffer.h"
#include "util/exec_context.h"
#include "util/page_pool.h"
#include "util/parallel.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/threshold.h"
#include "viz/rendering/external_faces.h"
#include "viz/rendering/ray_tracer.h"
#include "viz/rendering/volume_renderer.h"

namespace pviz {
namespace {

using util::CancelledError;
using util::CancelToken;
using util::ExecutionContext;
using util::kPagePoolFloor;
using util::PagePool;
using util::ScratchArena;
using util::ScratchVector;
using util::ThreadPool;

// ---- PagePool and ScratchArena -----------------------------------------

TEST(ScratchArena, ReleaseThenAcquireReusesTheBlock) {
  PagePool::global().trim();
  ScratchArena arena;
  void* first = arena.acquire(kPagePoolFloor + 10000);
  ASSERT_NE(first, nullptr);
  arena.release(first);

  ScratchArena::Stats afterRelease = arena.stats();
  EXPECT_EQ(afterRelease.bytesInUse, 0u);
  EXPECT_EQ(afterRelease.blocksPooled, 1u);

  // Fits in the retained block: must come back from the pool.
  void* second = arena.acquire(kPagePoolFloor + 5000);
  EXPECT_EQ(second, first);
  ScratchArena::Stats afterReuse = arena.stats();
  EXPECT_EQ(afterReuse.acquires, 2u);
  EXPECT_EQ(afterReuse.reuseHits, 1u);
  arena.release(second);

  arena.trim();
  EXPECT_EQ(arena.stats().blocksPooled, 0u);
}

TEST(ScratchArena, ScratchVectorReleasesOnDestruction) {
  PagePool::global().trim();
  ScratchArena arena;
  const std::size_t count = kPagePoolFloor / sizeof(std::int64_t);
  {
    ScratchVector<std::int64_t> v(arena, count);
    v.fill(7);
    EXPECT_EQ(v.size(), count);
    EXPECT_EQ(v[count - 1], 7);
    EXPECT_GT(arena.stats().bytesInUse, 0u);
  }
  EXPECT_EQ(arena.stats().bytesInUse, 0u);
  EXPECT_EQ(arena.stats().blocksPooled, 1u);
}

// The pool serves both of its callers from one free list: an output
// buffer freed on one thread hands its pages to another context's
// scratch block on another thread.
TEST(PagePool, BlockReleasedOnOneThreadServesAnotherThread) {
  PagePool::global().trim();
  const std::size_t count = 2 * kPagePoolFloor / sizeof(double);
  const void* released = nullptr;
  std::thread([&] {
    util::Buffer<double> output(count, 1.0);
    released = output.data();
  }).join();

  const void* reused = nullptr;
  std::uint64_t reuseHits = 0;
  std::thread([&] {
    ThreadPool pool(2);
    ExecutionContext ctx(pool);
    ScratchVector<double> scratch(ctx.arena(), count);
    reused = scratch.data();
    reuseHits = ctx.arena().stats().reuseHits;
  }).join();
  EXPECT_EQ(reused, released);
  EXPECT_EQ(reuseHits, 1u);
}

// Carve six neighbouring blocks out of one retained range, free every
// other one (the live blocks between keep them from merging), and ask
// for sizes that several of the free blocks could serve.
TEST(PagePool, BestFitTakesTheSmallestRetainedBlockThatFits) {
  constexpr std::size_t MiB = std::size_t{1} << 20;
  PagePool pool;
  pool.release(pool.acquire(12 * MiB), 12 * MiB);
  std::vector<char*> blocks;
  for (const std::size_t mib : {4, 1, 2, 1, 3, 1}) {
    blocks.push_back(static_cast<char*>(pool.acquire(mib * MiB)));
  }
  EXPECT_EQ(blocks[1], blocks[0] + 4 * MiB) << "split from the front";
  pool.release(blocks[0], 4 * MiB);
  pool.release(blocks[2], 2 * MiB);
  pool.release(blocks[4], 3 * MiB);
  ASSERT_EQ(pool.stats().blocksRetained, 3u);

  EXPECT_EQ(pool.acquire(MiB + MiB / 2), blocks[2]);  // 2 MiB block
  EXPECT_EQ(pool.acquire(3 * MiB), blocks[4]);         // exact fit
  EXPECT_EQ(pool.acquire(MiB), blocks[0]);             // only 4 MiB is left
  const PagePool::Stats s = pool.stats();
  EXPECT_EQ(s.bytesMapped, 12 * MiB);
  EXPECT_EQ(s.reuseHits, s.acquires - 1);
}

// A seeded random mix of acquires and releases: retained plus in-use
// bytes never exceed the high-water mark of in-use bytes, in-use bytes
// match what the test holds, and no two live blocks overlap (each block
// carries its own tag at both ends).
TEST(PagePool, RandomTrafficNeverBreaksTheResidencyBound) {
  constexpr std::size_t kPage = 4096;
  PagePool pool;
  std::mt19937_64 rng(20190520);
  struct Live {
    std::uint64_t* block;
    std::size_t bytes;
  };
  std::vector<Live> live;
  std::size_t inUse = 0;
  std::size_t peak = 0;
  for (std::uint64_t op = 0; op < 10000; ++op) {
    if (live.empty() || (live.size() < 24 && rng() % 2 == 0)) {
      const std::size_t bytes = (1 + rng() % 64) * kPage - rng() % kPage;
      auto* block = static_cast<std::uint64_t*>(pool.acquire(bytes));
      block[0] = op;
      block[bytes / sizeof(std::uint64_t) - 1] = op;
      live.push_back({block, bytes});
      inUse += (bytes + kPage - 1) / kPage * kPage;
      peak = std::max(peak, inUse);
    } else {
      const std::size_t pick = rng() % live.size();
      const Live victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_EQ(victim.block[0],
                victim.block[victim.bytes / sizeof(std::uint64_t) - 1])
          << "a live block was handed out twice";
      pool.release(victim.block, victim.bytes);
      inUse -= (victim.bytes + kPage - 1) / kPage * kPage;
    }
    const PagePool::Stats s = pool.stats();
    ASSERT_EQ(s.bytesInUse, inUse);
    ASSERT_EQ(s.peakBytesInUse, peak);
    ASSERT_LE(s.bytesRetained + s.bytesInUse, s.peakBytesInUse)
        << "after operation " << op;
  }
  for (const Live& block : live) pool.release(block.block, block.bytes);
  EXPECT_GT(pool.stats().reuseHits, 0u);
}

// The study's eight algorithms, twice over, each pass on its own Study,
// context, pool and thread: the second pass finds every page it needs
// already mapped.
TEST(PagePool, SecondStudyPassMapsNoFreshPages) {
  const core::AlgorithmParams params = core::AlgorithmParams::lightRendering();
  const auto pass = [&] {
    ThreadPool pool(2);
    ExecutionContext ctx(pool);
    core::Study study;
    for (const core::Algorithm algorithm : core::allAlgorithms()) {
      study.characterize(ctx, algorithm, 32, params);
    }
  };
  std::thread(pass).join();
  const PagePool::Stats first = PagePool::global().stats();
  std::thread(pass).join();
  const PagePool::Stats second = PagePool::global().stats();
  EXPECT_GT(second.acquires, first.acquires);
  EXPECT_EQ(second.bytesMapped, first.bytesMapped);
  EXPECT_EQ(second.reuseHits - first.reuseHits,
            second.acquires - first.acquires);
}

#if defined(__SANITIZE_ADDRESS__)
// A retained block is poisoned, so AddressSanitizer reports a read or
// write through a pointer kept past release.
TEST(PagePool, ReleasedBlockIsPoisonedForAddressSanitizer) {
  PagePool pool;
  auto* block = static_cast<char*>(pool.acquire(kPagePoolFloor));
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  pool.release(block, kPagePoolFloor);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + kPagePoolFloor - 1));
  auto* again = static_cast<char*>(pool.acquire(kPagePoolFloor));
  EXPECT_EQ(again, block);
  EXPECT_FALSE(__asan_address_is_poisoned(again + kPagePoolFloor - 1));
  pool.release(again, kPagePoolFloor);
}
#endif

// Acquire leaves blocks uninitialized, so every ScratchVector user and
// every Buffer fill must write each element before reading it.  Each
// kernel runs once on a fresh context with the pool emptied, then once
// on a warm context after the pool was handed one block of 0xA5 twice
// the size of everything the first run mapped: every pool request of
// the second run must come from those poisoned pages, and the outputs
// must match bit for bit.
TEST(ScratchArena, PoisonedPoolLeavesEveryKernelBitIdentical) {
  const vis::UniformGrid g = sim::makeCloverField(64);
  ExecutionContext setup;
  const auto [lo, hi] = g.field("energy").range(setup);
  const std::vector<double> isovalues =
      vis::ContourFilter::uniformIsovalues(setup, g.field("energy"), 10);
  using Kernel = std::function<std::string(ExecutionContext&)>;
  const std::vector<std::pair<std::string, Kernel>> kernels = {
      {"contour",
       [&](ExecutionContext& ctx) {
         vis::ContourFilter filter;
         filter.setIsovalues(isovalues);
         const vis::TriangleMesh m = filter.run(ctx, g, "energy").surface;
         testing::Fnv1a64 h;
         h.add(m.points);
         h.add(m.pointScalars);
         h.add(m.connectivity);
         return h.hex();
       }},
      {"threshold",
       [&](ExecutionContext& ctx) {
         vis::ThresholdFilter filter;
         filter.setRange(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo));
         const vis::HexSubset kept = filter.run(ctx, g, "energy").kept;
         testing::Fnv1a64 h;
         h.add(kept.cellIds);
         h.add(kept.cellScalars);
         return h.hex();
       }},
      {"clip",
       [&](ExecutionContext& ctx) {
         vis::ClipSphereFilter filter;
         const vis::Bounds box = g.bounds();
         filter.setSphere(box.center(), 0.3 * length(box.extent()));
         const vis::ClipResult r = filter.run(ctx, g, "energy").clipped;
         testing::Fnv1a64 h;
         h.add(r.cutPieces.points);
         h.add(r.cutPieces.pointScalars);
         h.add(r.cutPieces.connectivity);
         h.add(r.wholeCells.cellIds);
         h.add(r.wholeCells.cellScalars);
         return h.hex();
       }},
      {"isovolume",
       [&](ExecutionContext& ctx) {
         vis::IsovolumeFilter filter;
         filter.setRange(lo + 0.4 * (hi - lo), lo + 0.8 * (hi - lo));
         const auto r = filter.run(ctx, g, "energy");
         testing::Fnv1a64 h;
         h.add(r.cutPieces.points);
         h.add(r.cutPieces.pointScalars);
         h.add(r.cutPieces.connectivity);
         h.add(r.wholeCells.cellIds);
         h.add(r.wholeCells.cellScalars);
         return h.hex();
       }},
      {"external-faces",
       [&](ExecutionContext& ctx) {
         const vis::TriangleMesh m =
             vis::extractExternalFaces(ctx, g, "energy").mesh;
         testing::Fnv1a64 h;
         h.add(m.points);
         h.add(m.pointScalars);
         h.add(m.connectivity);
         return h.hex();
       }},
      {"advection",
       [&](ExecutionContext& ctx) {
         vis::ParticleAdvectionFilter filter;
         filter.setSeedCount(1000);
         filter.setMaxSteps(100);
         const vis::PolylineSet lines =
             filter.run(ctx, g, "velocity").streamlines;
         testing::Fnv1a64 h;
         h.add(lines.points);
         h.add(lines.offsets);
         h.add(lines.pointScalars);
         return h.hex();
       }},
  };

  ThreadPool pool(4);
  PagePool& pages = PagePool::global();
  for (const auto& [name, kernel] : kernels) {
    SCOPED_TRACE(name);
    pages.trim();
    const PagePool::Stats cold = pages.stats();
    ExecutionContext fresh(pool);
    const std::string expected = kernel(fresh);
    const PagePool::Stats ran = pages.stats();
    ASSERT_GT(ran.acquires, cold.acquires) << "no block reached the pool";

    pages.trim();
    const std::size_t poisoned = 2 * (ran.bytesMapped - cold.bytesMapped);
    void* block = pages.acquire(poisoned);
    std::memset(block, 0xA5, poisoned);
    pages.release(block, poisoned);

    ExecutionContext warm(pool);
    const PagePool::Stats before = pages.stats();
    EXPECT_EQ(kernel(warm), expected);
    const PagePool::Stats after = pages.stats();
    EXPECT_EQ(after.reuseHits - before.reuseHits,
              after.acquires - before.acquires)
        << "a request missed the poisoned pool";
    EXPECT_EQ(warm.arena().stats().bytesInUse, 0u);
  }
}

// Contour holds one full-grid above/case pair for all isovalue passes;
// each pass keeps only its compacted active-cell state off the arena.
// Every mc-* phase must therefore end at the same arena occupancy (no
// pass acquires inside an earlier pass's phases), and the peak stays at
// the two full-grid byte arrays however many passes run.
TEST(ScratchArena, ContourPassesShareOneFullGridFootprint) {
  const vis::UniformGrid g = sim::makeCloverField(64);
  vis::ContourFilter filter;
  ThreadPool pool(4);
  ExecutionContext ctx(pool);
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(ctx, g.field("energy"), 10));
  ctx.beginRun();
  const auto result = filter.run(ctx, g, "energy");
  ASSERT_GT(result.surface.numTriangles(), 0);

  int mcPhases = 0;
  std::size_t inUse = 0;
  for (const auto& phase : ctx.tracer().phases()) {
    if (phase.name.rfind("mc-", 0) != 0) continue;
    SCOPED_TRACE(phase.name + " #" + std::to_string(mcPhases));
    if (mcPhases++ == 0) inUse = phase.arenaBytesInUse;
    EXPECT_EQ(phase.arenaBytesInUse, inUse);
  }
  EXPECT_EQ(mcPhases, 10 * 2 + 1);  // classify + scan per pass, generate
  EXPECT_GT(inUse, 0u);
  const auto points = static_cast<std::size_t>(g.numPoints());
  const auto cells = static_cast<std::size_t>(g.numCells());
  EXPECT_LE(ctx.arena().stats().peakBytesInUse, points + cells);
}

// ---- CancelToken --------------------------------------------------------

TEST(CancelToken, ExplicitCancelAndReset) {
  CancelToken token;
  EXPECT_FALSE(token.poll());
  token.cancel();
  EXPECT_TRUE(token.poll());
  EXPECT_THROW(token.throwIfCancelled(), CancelledError);
  token.reset();
  EXPECT_FALSE(token.poll());
  EXPECT_NO_THROW(token.throwIfCancelled());
}

TEST(CancelToken, ExpiredDeadlineTripsWithDeadlineMessage) {
  CancelToken token;
  token.setBudgetMs(0.0);  // deadline = now: already due
  try {
    token.throwIfCancelled();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(CancelToken, CancelAfterPollsCountsBoundaries) {
  CancelToken token;
  token.cancelAfterPolls(2);
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.poll());
  EXPECT_TRUE(token.poll());  // the (n+1)-th poll trips
}

TEST(CancelToken, ChunkLoopStopsOnCancellation) {
  ThreadPool pool(2);
  ExecutionContext ctx(pool);
  ctx.cancel().cancelAfterPolls(1);  // survive one chunk, die at another
  std::atomic<std::int64_t> visited{0};
  // The chunk whose poll trips never runs its body, so even in the worst
  // schedule at least one chunk's iterations are missing from the total.
  EXPECT_THROW(util::parallelForChunks(
                   ctx, 0, 10 * util::kDefaultGrain,
                   [&](std::int64_t b, std::int64_t e) {
                     visited.fetch_add(e - b, std::memory_order_relaxed);
                   }),
               CancelledError);
  EXPECT_LT(visited.load(), 10 * util::kDefaultGrain);
}

// ---- PhaseTracer --------------------------------------------------------

TEST(PhaseTracer, RecordsPhasesAndSerializes) {
  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  {
    auto scope = ctx.phase("alpha");
  }
  {
    auto scope = ctx.phase("beta");
  }
  ASSERT_EQ(ctx.tracer().phases().size(), 2u);
  EXPECT_EQ(ctx.tracer().phases()[0].name, "alpha");
  EXPECT_FALSE(ctx.tracer().phases()[0].cancelled);
  EXPECT_EQ(ctx.tracer().phases()[0].poolConcurrency, pool.concurrency());
  const std::string json = ctx.tracer().toJson();
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("total_ms"), std::string::npos);

  ctx.beginRun();
  EXPECT_TRUE(ctx.tracer().phases().empty());
}

TEST(PhaseTracer, CancelledPhaseIsMarked) {
  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  try {
    auto scope = ctx.phase("doomed");
    ctx.cancel().cancel();
    ctx.checkCancelled();
  } catch (const CancelledError&) {
  }
  ASSERT_EQ(ctx.tracer().phases().size(), 1u);
  EXPECT_TRUE(ctx.tracer().phases()[0].cancelled);
}

// ---- kernel cancellation sweeps ----------------------------------------

// Runs `attempt` with the token tripping at the n-th poll for n = 0, 1,
// 2, ... until a run completes, asserting after every cancelled attempt
// that the arena has no bytes checked out.  Returns the number of
// cancelled attempts (== the kernel's poll count).
template <typename Attempt>
int sweepCancellationBoundaries(ExecutionContext& ctx, Attempt&& attempt) {
  constexpr int kMaxBoundaries = 100000;
  for (int n = 0; n < kMaxBoundaries; ++n) {
    ctx.beginRun();
    ctx.cancel().reset();
    ctx.cancel().cancelAfterPolls(n);
    try {
      attempt();
      ctx.cancel().reset();
      return n;
    } catch (const CancelledError&) {
      EXPECT_EQ(ctx.arena().stats().bytesInUse, 0u)
          << "scratch leaked after cancelling at boundary " << n;
    }
  }
  ADD_FAILURE() << "kernel never completed";
  return kMaxBoundaries;
}

TEST(KernelCancellation, ContourCancelsCleanlyAtEveryBoundary) {
  const vis::UniformGrid g = sim::makeCloverField(12);
  vis::ContourFilter filter;
  ExecutionContext setup;
  filter.setIsovalues(
      vis::ContourFilter::uniformIsovalues(setup, g.field("energy"), 2));

  // Reference mesh from a fresh, never-cancelled context.
  ThreadPool refPool(1);
  ExecutionContext refCtx(refPool);
  const vis::TriangleMesh reference = filter.run(refCtx, g, "energy").surface;
  ASSERT_GT(reference.numTriangles(), 0);

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  vis::TriangleMesh mesh;
  const int boundaries = sweepCancellationBoundaries(
      ctx, [&] { mesh = filter.run(ctx, g, "energy").surface; });
  EXPECT_GT(boundaries, 0) << "expected at least one cancellation point";

  // The uncancelled run on the (warm, previously cancelled) context must
  // be bit-identical to the fresh-context run.
  ASSERT_EQ(mesh.points.size(), reference.points.size());
  for (std::size_t i = 0; i < mesh.points.size(); ++i) {
    EXPECT_EQ(mesh.points[i].x, reference.points[i].x);
    EXPECT_EQ(mesh.points[i].y, reference.points[i].y);
    EXPECT_EQ(mesh.points[i].z, reference.points[i].z);
  }
  EXPECT_EQ(mesh.connectivity, reference.connectivity);
  EXPECT_EQ(mesh.pointScalars, reference.pointScalars);
}

TEST(KernelCancellation, RayTraceCancelsCleanlyAtEveryBoundary) {
  const vis::UniformGrid g = sim::makeCloverField(8);
  vis::RayTracer tracer;
  tracer.setImageSize(16, 16);
  tracer.setCameraCount(2);

  ThreadPool refPool(1);
  ExecutionContext refCtx(refPool);
  const vis::Image reference = tracer.run(refCtx, g, "energy").images.at(0);

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  vis::Image image(1, 1);
  const int boundaries = sweepCancellationBoundaries(
      ctx, [&] { image = tracer.run(ctx, g, "energy").images.at(0); });
  EXPECT_GT(boundaries, 0);

  ASSERT_EQ(image.width(), reference.width());
  ASSERT_EQ(image.height(), reference.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      EXPECT_EQ(image.at(x, y).r, reference.at(x, y).r);
      EXPECT_EQ(image.at(x, y).g, reference.at(x, y).g);
      EXPECT_EQ(image.at(x, y).b, reference.at(x, y).b);
      EXPECT_EQ(image.at(x, y).a, reference.at(x, y).a);
    }
  }
}

TEST(KernelCancellation, VolumeRenderCancelsCleanlyAtEveryBoundary) {
  const vis::UniformGrid g = sim::makeCloverField(8);
  vis::VolumeRenderer renderer;
  renderer.setImageSize(40, 24);
  renderer.setCameraCount(2);

  ThreadPool refPool(1);
  ExecutionContext refCtx(refPool);
  const vis::VolumeRenderer::Result reference =
      renderer.run(refCtx, g, "energy");

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  vis::VolumeRenderer::Result result;
  const int boundaries = sweepCancellationBoundaries(
      ctx, [&] { result = renderer.run(ctx, g, "energy"); });
  EXPECT_GT(boundaries, 2) << "expected per-camera and per-chunk points";

  EXPECT_EQ(result.samplesTaken, reference.samplesTaken);
  ASSERT_EQ(result.images.size(), 1u);
  const vis::Image& image = result.images[0];
  const vis::Image& expected = reference.images.at(0);
  ASSERT_EQ(image.width(), expected.width());
  ASSERT_EQ(image.height(), expected.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      EXPECT_EQ(image.at(x, y).r, expected.at(x, y).r);
      EXPECT_EQ(image.at(x, y).g, expected.at(x, y).g);
      EXPECT_EQ(image.at(x, y).b, expected.at(x, y).b);
      EXPECT_EQ(image.at(x, y).a, expected.at(x, y).a);
    }
  }
}

// ---- cache hygiene ------------------------------------------------------

TEST(CancellationCacheHygiene, StudyMemoAndDiskCacheStayClean) {
  const std::string cachePath =
      ::testing::TempDir() + "pviz_cancel_cache_test.txt";
  std::remove(cachePath.c_str());

  core::StudyConfig config;
  config.cycles = 1;
  config.cachePath = cachePath;
  core::Study study(config);
  core::AlgorithmParams blocks = config.params;
  blocks.blockCount += 1;  // 2 unless POWERVIZ_BLOCKS moved the default

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  std::size_t entries = 0;
  // The configured params, then an override: both go through the one
  // memo and the one disk cache.
  for (const core::AlgorithmParams& params : {config.params, blocks}) {
    SCOPED_TRACE("blockCount=" + std::to_string(params.blockCount));
    ctx.cancel().cancelAfterPolls(0);  // die at the first boundary
    EXPECT_THROW(study.characterize(ctx, core::Algorithm::Contour, 8, params),
                 CancelledError);

    // The cancelled run must not have written the disk cache...
    EXPECT_EQ(core::loadProfileCache(cachePath).size(), entries);

    // ...nor poisoned the in-memory memo: a clean run re-characterizes
    // and succeeds (a stale in-flight claim would deadlock, a cached
    // partial profile would return garbage).
    ctx.cancel().reset();
    const vis::KernelProfile& profile =
        study.characterize(ctx, core::Algorithm::Contour, 8, params);
    EXPECT_FALSE(profile.phases.empty());
    EXPECT_EQ(core::loadProfileCache(cachePath).size(), ++entries);
  }
  std::remove(cachePath.c_str());
}

TEST(CancellationCacheHygiene, EngineResultCacheStaysClean) {
  service::EngineConfig config;
  config.study.cycles = 1;
  service::ServiceEngine engine(config);

  service::Request request;
  request.op = service::Op::Characterize;
  request.algorithm = core::Algorithm::Contour;
  request.size = 8;

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  ctx.cancel().cancelAfterPolls(0);
  EXPECT_THROW(engine.handle(ctx, request), CancelledError);

  // The cancelled request must not have inserted a result: the retry is
  // a cache miss that computes, and only then does a repeat hit.
  ctx.cancel().reset();
  EXPECT_FALSE(engine.handle(ctx, request).cached);
  EXPECT_TRUE(engine.handle(ctx, request).cached);
}

// ---- flow workload edges through the service path -----------------------

TEST(ServiceAdvectionEdges, ZeroSeedCharacterizationIsWellFormedAndCached) {
  // A server configured with seedCount = 0 (the degenerate floor the
  // filter accepts) still answers advection characterizations: the
  // profile is complete and the canonical empty run is cacheable.
  service::EngineConfig config;
  config.study.cycles = 1;
  config.study.params.seedCount = 0;
  service::ServiceEngine engine(config);

  service::Request request;
  request.op = service::Op::Characterize;
  request.algorithm = core::Algorithm::ParticleAdvection;
  request.size = 8;

  ThreadPool pool(1);
  ExecutionContext ctx(pool);
  const auto outcome = engine.handle(ctx, request);
  EXPECT_FALSE(outcome.cached);
  const service::Json* phases = outcome.result.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_FALSE(phases->asArray().empty());
  EXPECT_TRUE(engine.handle(ctx, request).cached);
}

TEST(ServiceAdvectionEdges, SingleSeedOverrideForksTheResultCache) {
  service::EngineConfig config;
  config.study.cycles = 1;
  service::ServiceEngine engine(config);

  ThreadPool pool(1);
  ExecutionContext ctx(pool);

  service::Request base;
  base.op = service::Op::Characterize;
  base.algorithm = core::Algorithm::ParticleAdvection;
  base.size = 8;
  base.advectSeeds = 4;
  base.advectSteps = 16;
  EXPECT_FALSE(engine.handle(ctx, base).cached);
  EXPECT_TRUE(engine.handle(ctx, base).cached);

  // One seed is a distinct workload: it must miss the cache entry the
  // 4-seed request filled, then hit its own on repeat.
  service::Request single = base;
  single.advectSeeds = 1;
  const auto outcome = engine.handle(ctx, single);
  EXPECT_FALSE(outcome.cached);
  const service::Json* phases = outcome.result.find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_FALSE(phases->asArray().empty());
  EXPECT_TRUE(engine.handle(ctx, single).cached);
}

TEST(ServiceMetrics, CancelledCounterSurfacesInStats) {
  service::ServiceMetrics metrics;
  metrics.count(service::ServiceMetrics::kCancelled);
  metrics.count(service::ServiceMetrics::kCancelled);
  EXPECT_EQ(metrics.value(service::ServiceMetrics::kCancelled), 2.0);
  const service::Json json = metrics.statsJson(service::ResultCache::Stats{});
  const service::Json* cancelled = json.find("cancelled");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->asNumber(), 2.0);
}

}  // namespace
}  // namespace pviz
