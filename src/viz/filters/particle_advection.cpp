#include "viz/filters/particle_advection.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace pviz::vis {
namespace {

// Particle status.  Only kActive particles keep integrating; everything
// else is terminal.
constexpr std::uint8_t kActive = 0;
constexpr std::uint8_t kExited = 1;     // left the domain (or sample failed)
constexpr std::uint8_t kFinished = 2;   // reached maxSteps
constexpr std::uint8_t kCompleted = 3;  // pathline crossed t = 1

// Trajectory chunk.  Chains of these, bump-allocated from per-slot
// arena slabs, replace per-particle std::vectors: a particle's chain
// grows by pointer append with zero reallocation, and the blocks stay
// address-stable.  16 points ≈
// 400 B bounds the per-particle waste on short (early-exit) paths.
constexpr std::int32_t kSegPoints = 16;

struct Seg {
  Seg* next;
  std::int32_t count;
  Vec3 pts[kSegPoints];
};

/// Per-slot segment allocator over the context arena.  Not thread-safe;
/// the static loop never runs one slot on two workers at once.  Slab acquisition goes through the (mutex-locked) arena, so
/// distinct slots may allocate slabs concurrently.
class SegmentPool {
 public:
  explicit SegmentPool(util::ScratchArena& arena) : arena_(&arena) {}

  Seg* alloc() {
    if (usedInLast_ == kSlabSegs) {
      slabs_.emplace_back(*arena_, kSlabSegs);
      usedInLast_ = 0;
    }
    Seg* s = slabs_.back().data() + usedInLast_;
    ++usedInLast_;
    s->next = nullptr;
    s->count = 0;
    return s;
  }

 private:
  static constexpr std::size_t kSlabSegs = 512;  // ~200 KiB per slab
  util::ScratchArena* arena_;
  std::vector<util::ScratchVector<Seg>> slabs_;
  std::size_t usedInLast_ = kSlabSegs;  // force a slab on first alloc
};

/// Steady flow: one field, integration time is a pure parameter.
struct StreamlineSampler {
  const UniformGrid& grid;
  const Field& field;
  bool operator()(const Vec3& x, double /*t*/, Vec3& v) const {
    return grid.sampleVector(field, x, v);
  }
};

/// Unsteady flow across one time window: velocity at integration time
/// t ∈ [0, 1] is the linear blend of the two time steps' fields.  RK4
/// stages past the window edge clamp to the edge field.
struct PathlineSampler {
  const UniformGrid& grid;
  const Field& fieldBegin;
  const Field& fieldEnd;
  bool operator()(const Vec3& x, double t, Vec3& v) const {
    Vec3 v0, v1;
    if (!grid.sampleVector(fieldBegin, x, v0)) return false;
    if (!grid.sampleVector(fieldEnd, x, v1)) return false;
    const double tt = std::clamp(t, 0.0, 1.0);
    v = v0 * (1.0 - tt) + v1 * tt;
    return true;
  }
};

/// SoA particle state.  All arena-backed; released on scope exit (or
/// cancellation unwind) by ScratchVector RAII.
struct ParticlePool {
  util::ScratchVector<Vec3> seed;
  util::ScratchVector<Vec3> pos;
  util::ScratchVector<std::int64_t> steps;
  util::ScratchVector<std::uint8_t> status;
  util::ScratchVector<Seg*> head;
  util::ScratchVector<Seg*> tail;

  ParticlePool(util::ScratchArena& arena, std::size_t n)
      : seed(arena, n),
        pos(arena, n),
        steps(arena, n),
        status(arena, n),
        head(arena, n),
        tail(arena, n) {}
};

/// Integrate particle `p` until it reaches `maxSteps`, terminates, or
/// (pathline) crosses t = 1.  One RK4 step is the exact stage order and
/// blend the filter has always used, for both modes.
template <bool kPathline, typename Sampler>
void advanceParticle(const Sampler& sample, const Bounds& box, double h,
                     std::int64_t maxSteps, ParticlePool& particles,
                     std::int64_t p, SegmentPool& segs) {
  const auto u = static_cast<std::size_t>(p);
  Vec3 x = particles.pos[u];
  std::int64_t step = particles.steps[u];
  Seg* head = particles.head[u];
  Seg* tail = particles.tail[u];
  std::uint8_t status = kActive;

  while (step < maxSteps) {
    const double t = static_cast<double>(step) * h;
    Vec3 k1, k2, k3, k4;
    if (!sample(x, t, k1) ||
        !sample(x + k1 * (h * 0.5), t + h * 0.5, k2) ||
        !sample(x + k2 * (h * 0.5), t + h * 0.5, k3) ||
        !sample(x + k3 * h, t + h, k4)) {
      status = kExited;
      break;
    }
    const Vec3 nx = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0);
    if (!box.contains(nx)) {
      status = kExited;
      break;
    }
    x = nx;
    ++step;
    if (tail == nullptr || tail->count == kSegPoints) {
      Seg* s = segs.alloc();
      if (tail != nullptr) {
        tail->next = s;
      } else {
        head = s;
      }
      tail = s;
    }
    tail->pts[tail->count] = nx;
    ++tail->count;
    if (kPathline && static_cast<double>(step) * h >= 1.0) {
      status = kCompleted;
      break;
    }
  }
  if (status == kActive && step >= maxSteps) status = kFinished;

  particles.pos[u] = x;
  particles.steps[u] = step;
  particles.head[u] = head;
  particles.tail[u] = tail;
  particles.status[u] = status;
}

struct RunParams {
  Id seeds;
  Id maxSteps;
  double h;
  std::uint64_t rngSeed;
};

template <bool kPathline, typename Sampler>
ParticleAdvectionFilter::Result runImpl(util::ExecutionContext& ctx,
                                        const UniformGrid& grid,
                                        const Sampler& sample,
                                        double fieldBytes,
                                        const RunParams& params) {
  using Filter = ParticleAdvectionFilter;
  const Bounds box = grid.bounds();
  const std::int64_t n = params.seeds;
  const double h = params.h;
  const std::int64_t maxSteps = params.maxSteps;
  const std::int64_t slots =
      static_cast<std::int64_t>(std::max(1u, ctx.concurrency()));

  Filter::Result result;
  ParticlePool particles(ctx.arena(), static_cast<std::size_t>(n));

  {
    // Counter-based seeding: every lane derives its position from
    // (rngSeed, index) alone, so a million-seed setup is a parallel
    // sweep, not a serial RNG walk.
    util::ExecutionContext::PhaseScope phase(ctx, "seed-particles");
    util::parallelFor(ctx, 0, n, [&](std::int64_t i) {
      const Vec3 s = Filter::seedPosition(box, params.rngSeed, i);
      const auto u = static_cast<std::size_t>(i);
      particles.seed[u] = s;
      particles.pos[u] = s;
      particles.steps[u] = 0;
      particles.status[u] = kActive;
      particles.head[u] = nullptr;
      particles.tail[u] = nullptr;
    });
  }

  std::vector<SegmentPool> pools;
  pools.reserve(static_cast<std::size_t>(slots));
  for (std::int64_t w = 0; w < slots; ++w) pools.emplace_back(ctx.arena());

  {
    util::ExecutionContext::PhaseScope phase(ctx, "rk4-advect");
    // One contiguous span per slot, every particle integrated to
    // completion in place.
    const std::int64_t grain =
        std::max<std::int64_t>(1, (n + slots - 1) / slots);
    util::parallelForChunks(
        ctx, 0, n,
        [&](std::int64_t b, std::int64_t e) {
          SegmentPool& segs = pools[static_cast<std::size_t>(b / grain)];
          for (std::int64_t p = b; p < e; ++p) {
            advanceParticle<kPathline>(sample, box, h, maxSteps, particles, p,
                                       segs);
          }
        },
        grain);
  }

  result.totalSteps = util::parallelReduce(
      ctx, 0, n, std::int64_t{0},
      [&](std::int64_t acc, std::int64_t i) {
        return acc + particles.steps[static_cast<std::size_t>(i)];
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  result.terminated = util::parallelReduce(
      ctx, 0, n, std::int64_t{0},
      [&](std::int64_t acc, std::int64_t i) {
        return acc +
               (particles.status[static_cast<std::size_t>(i)] == kExited ? 1
                                                                         : 0);
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  if (kPathline) {
    result.completed = util::parallelReduce(
        ctx, 0, n, std::int64_t{0},
        [&](std::int64_t acc, std::int64_t i) {
          return acc +
                 (particles.status[static_cast<std::size_t>(i)] == kCompleted
                      ? 1
                      : 0);
        },
        [](std::int64_t a, std::int64_t b) { return a + b; });
  }

  {
    // Single exact-size gather: offsets by scan over per-particle point
    // counts, then every particle walks its chain into its final span.
    util::ExecutionContext::PhaseScope phase(ctx, "assemble-lines");
    util::ScratchVector<std::int64_t> offsets(ctx.arena(),
                                              static_cast<std::size_t>(n));
    util::parallelFor(ctx, 0, n, [&](std::int64_t i) {
      offsets[static_cast<std::size_t>(i)] =
          particles.steps[static_cast<std::size_t>(i)] + 1;
    });
    const std::int64_t totalPoints =
        util::exclusiveScan(ctx, offsets.data(), n);
    PolylineSet& out = result.streamlines;
    out.points.resize(static_cast<std::size_t>(totalPoints));
    out.pointScalars.resize(static_cast<std::size_t>(totalPoints));
    out.offsets.resize(static_cast<std::size_t>(n) + 1);
    out.offsets[0] = 0;
    util::parallelFor(ctx, 0, n, [&](std::int64_t i) {
      const auto u = static_cast<std::size_t>(i);
      const std::int64_t base = offsets[u];
      out.points[static_cast<std::size_t>(base)] = particles.seed[u];
      out.pointScalars[static_cast<std::size_t>(base)] = 0.0;
      std::int64_t k = 1;
      for (const Seg* s = particles.head[u]; s != nullptr; s = s->next) {
        for (std::int32_t j = 0; j < s->count; ++j) {
          out.points[static_cast<std::size_t>(base + k)] = s->pts[j];
          out.pointScalars[static_cast<std::size_t>(base + k)] =
              static_cast<double>(k) * h;
          ++k;
        }
      }
      out.offsets[u + 1] = base + k;
    });
  }

  // --- Workload characterization.  RK4 is arithmetic-dense: four
  // trilinear vector samples plus the combination per step, with the
  // gathers landing in a small moving working set (the paper observes
  // the lowest LLC miss rate and the highest power draw of the study).
  // Pathlines sample two fields per stage, hence the factor `sf`.
  result.profile.kernel = "particle-advection";
  result.profile.elements = grid.numCells();
  const double steps = static_cast<double>(result.totalSteps);
  const double sf = kPathline ? 2.0 : 1.0;

  WorkProfile& advect = result.profile.addPhase("rk4-advect");
  advect.flops = steps * (4 * 158 * sf + 56);  // trilinear Vec3 samples + blend
  advect.intOps = steps * (4 * 42 * sf + 20);  // cell locate + index arithmetic
  advect.memOps = steps * (4 * 26 * sf + 8);
  // Particle neighborhoods: repeated gathers over a compact moving
  // working set — almost everything hits in cache.
  advect.bytesReused = steps * 4 * 24 * 8 * sf;
  // Each particle's gathers revisit a small moving neighborhood; the
  // aggregate footprint is particles x a few cache lines, independent of
  // the dataset size (the paper's size-invariant IPC for advection).
  advect.workingSetBytes =
      std::min(fieldBytes, static_cast<double>(params.seeds) * 4096.0);
  advect.bytesStreamed = steps * 2 * 24 +  // streamline output + sparse pulls
                         static_cast<double>(params.seeds) * 64;
  advect.irregularAccesses = steps * 0.3;  // occasional new cache line
  advect.parallelFraction = 0.995;  // particles are independent
  advect.overlap = 0.55;            // dependent FP chain per step

  WorkProfile& assemble = result.profile.addPhase("assemble-lines");
  const double outPts = static_cast<double>(result.streamlines.points.size());
  assemble.intOps = outPts * 4;
  assemble.memOps = outPts * 3;
  assemble.bytesStreamed = outPts * 32;  // one gathered write per point
  assemble.parallelFraction = 0.5;
  assemble.overlap = 0.9;

  return result;
}

const Field& requirePointVectorField(const UniformGrid& grid,
                                     const std::string& fieldName) {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "advection requires a point vector field");
  PVIZ_REQUIRE(field.components() == 3,
               "advection requires a 3-component field");
  return field;
}

}  // namespace

Vec3 ParticleAdvectionFilter::seedPosition(const Bounds& box,
                                           std::uint64_t rngSeed, Id index) {
  // Decorrelate the counter with a golden-ratio stride before the Rng
  // constructor's splitmix64 lane expansion finishes the scramble.
  util::Rng rng(rngSeed ^ (static_cast<std::uint64_t>(index + 1) *
                           0x9E3779B97F4A7C15ull));
  return {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
          rng.uniform(box.lo.z, box.hi.z)};
}

ParticleAdvectionFilter::Mode ParticleAdvectionFilter::parseMode(
    const std::string& token) {
  if (token == "streamline") return Mode::Streamline;
  if (token == "pathline") return Mode::Pathline;
  throw Error("unknown advection mode '" + token +
                    "' (expected streamline|pathline)");
}

const char* ParticleAdvectionFilter::modeToken(Mode mode) {
  return mode == Mode::Streamline ? "streamline" : "pathline";
}

ParticleAdvectionFilter::Result ParticleAdvectionFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = requirePointVectorField(grid, fieldName);
  const RunParams params{seeds_, maxSteps_, stepLength_, rngSeed_};
  return runImpl<false>(ctx, grid, StreamlineSampler{grid, field},
                        field.sizeBytes(), params);
}

ParticleAdvectionFilter::Result ParticleAdvectionFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& beginField, const std::string& endField) const {
  const Field& fb = requirePointVectorField(grid, beginField);
  const Field& fe = requirePointVectorField(grid, endField);
  const RunParams params{seeds_, maxSteps_, stepLength_, rngSeed_};
  return runImpl<true>(ctx, grid, PathlineSampler{grid, fb, fe},
                       fb.sizeBytes() + fe.sizeBytes(), params);
}

}  // namespace pviz::vis
