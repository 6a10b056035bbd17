// Particle advection — trace massless particles through a vector field
// with fourth-order Runge–Kutta, emitting polylines.
//
// Per the paper: particles are seeded throughout the dataset and advected
// a fixed number of steps; particles leaving the bounding box terminate.
// Seed count, step length and step count are held constant regardless of
// dataset size (the paper's Phase 3 choice, which is what makes this
// algorithm's IPC insensitive to dataset size).
//
// Two tracing modes:
//   * streamline — steady flow: one vector field, integration time is a
//     pure parameter;
//   * pathline — unsteady flow across two pipeline time steps: the
//     velocity at integration time t ∈ [0, 1] is the linear blend of the
//     `begin` and `end` fields at each RK4 stage, and a particle
//     completes when it crosses t = 1.
//
// Particles are integrated to completion in one static-chunk loop, one
// contiguous particle span per worker slot (DESIGN.md §12 has the
// measurements that chose it).
//
// Particle state lives in SoA pools and trajectories in chunked segment
// lists, both on the ExecutionContext ScratchArena; the final
// PolylineSet is written by a single exact-size gather.  Seeding is
// counter-based (seed i's position depends only on (rngSeed, i)), so
// million-seed setup parallelizes instead of walking one RNG serially.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"
#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class ParticleAdvectionFilter {
 public:
  enum class Mode { Streamline, Pathline };

  struct Result {
    PolylineSet streamlines;      ///< traced lines (pathlines too)
    std::int64_t totalSteps = 0;  ///< RK4 steps actually taken
    std::int64_t terminated = 0;  ///< particles that left the domain
    std::int64_t completed = 0;   ///< pathline particles that reached t = 1
    KernelProfile profile;
  };

  /// Zero seeds is a valid degenerate workload (empty PolylineSet with
  /// the canonical single-0 offsets array); the CLI tools reject it
  /// earlier because a zero-seed *study* is almost certainly a typo.
  void setSeedCount(Id seeds) {
    PVIZ_REQUIRE(seeds >= 0, "seed count must be non-negative");
    seeds_ = seeds;
  }
  void setMaxSteps(Id steps) {
    PVIZ_REQUIRE(steps >= 1, "need at least one step");
    maxSteps_ = steps;
  }
  void setStepLength(double h) {
    PVIZ_REQUIRE(h > 0.0, "step length must be positive");
    stepLength_ = h;
  }
  void setSeedRngSeed(std::uint64_t s) { rngSeed_ = s; }

  Id seedCount() const { return seeds_; }
  Id maxSteps() const { return maxSteps_; }
  double stepLength() const { return stepLength_; }

  /// Streamline advection through point vector field `fieldName`
  /// (3 components).
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

  /// Pathline advection across one time window: `beginField` is the
  /// velocity at t = 0, `endField` at t = 1 (both point vector fields on
  /// `grid`); stage velocities blend linearly in integration time.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& beginField, const std::string& endField) const;

  /// Counter-based seed placement: seed `index`'s position depends only
  /// on (box, rngSeed, index), never on other seeds.  Exposed so tests
  /// and benchmarks can reason about individual seeds without
  /// materializing the pool.
  static Vec3 seedPosition(const Bounds& box, std::uint64_t rngSeed, Id index);

  static Mode parseMode(const std::string& token);
  static const char* modeToken(Mode mode);

 private:
  Id seeds_ = 1000;
  Id maxSteps_ = 1000;
  double stepLength_ = 0.001;
  std::uint64_t rngSeed_ = 42;
};

}  // namespace pviz::vis
