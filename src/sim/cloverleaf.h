// CloverLeaf-like 3-D compressible hydrodynamics proxy.
//
// The paper drives its visualization algorithms in situ from CloverLeaf,
// a Lagrangian-Eulerian hydrodynamics proxy app, visualizing the energy
// field (Fig. 1 shows the energy at the 200th time step).  This module
// implements a compact explicit hydro scheme with the same structure:
//
//   * cell-centered density and specific internal energy,
//   * node-centered velocity,
//   * ideal-gas EOS (p = (gamma-1) rho e) with artificial viscosity,
//   * a Lagrangian phase (acceleration + PdV work) followed by a
//     donor-cell Eulerian advection (remap) phase,
//   * the standard CloverLeaf two-state initial condition: a dense
//     high-energy region in one corner expanding into a light ambient
//     gas.
//
// Every loop runs on the caller's ExecutionContext, like the
// visualization filters.  The workload of a run is hydroProfile(): a
// hydro step is the archetypal compute-bound, high-power HPC workload
// the study's power advisor trades off against visualization, and its
// counts depend only on the grid size and step count.
#pragma once

#include <cstdint>

#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::sim {

struct CloverConfig {
  double gamma = 1.4;           ///< ideal gas ratio of specific heats
  double cfl = 0.5;             ///< CFL safety factor
  double viscosity = 0.1;       ///< artificial viscosity coefficient
  double ambientDensity = 0.2;
  double ambientEnergy = 1.0;
  double blastDensity = 1.0;
  double blastEnergy = 2.5;
  double blastExtent = 0.25;    ///< corner box size as a domain fraction
};

class CloverLeaf {
 public:
  CloverLeaf(util::ExecutionContext& ctx, vis::Id cellsPerAxis,
             CloverConfig config = {});
  /// Kept for perfbench, which builds the proxy without a context: runs
  /// on a default ExecutionContext (global pool, default backend).
  explicit CloverLeaf(vis::Id cellsPerAxis);

  /// Advance one time step; returns the dt taken.
  double step(util::ExecutionContext& ctx);

  /// Advance `n` steps.
  void run(util::ExecutionContext& ctx, int n) {
    for (int i = 0; i < n; ++i) step(ctx);
  }
  /// Kept for perfbench: run(ctx, n) on a default ExecutionContext.
  void run(int n);

  int stepCount() const { return steps_; }
  double time() const { return time_; }
  vis::Id cellsPerAxis() const { return cellsPerAxis_; }

  // Conserved quantities for validation.
  double totalMass() const;
  double totalEnergy() const;  ///< internal + kinetic
  double minDensity() const;

  /// Build a visualization dataset: point fields "energy" (scalar,
  /// cell-to-point averaged) and "velocity" (the node velocities).
  vis::UniformGrid exportForViz(util::ExecutionContext& ctx) const;

  // Direct state access for tests.
  const std::vector<double>& density() const { return density_; }
  const std::vector<double>& energy() const { return energy_; }

 private:
  void equationOfState(util::ExecutionContext& ctx);
  double computeDt() const;
  void accelerate(util::ExecutionContext& ctx, double dt);
  void pdvAndViscosity(util::ExecutionContext& ctx, double dt);
  void advect(util::ExecutionContext& ctx, double dt);

  vis::Id cellsPerAxis_;
  vis::Id3 cellDims_;
  vis::Id3 pointDims_;
  double h_;  ///< grid spacing
  CloverConfig config_;

  // Cell-centered.
  std::vector<double> density_;
  std::vector<double> energy_;
  std::vector<double> pressure_;
  std::vector<double> soundspeed_;
  // Node-centered velocity components.
  std::vector<double> velX_, velY_, velZ_;
  // Scratch for advection.
  std::vector<double> scratchA_, scratchB_;

  int steps_ = 0;
  double time_ = 0.0;

  vis::Id cellId(vis::Id i, vis::Id j, vis::Id k) const {
    return i + cellDims_.i * (j + cellDims_.j * k);
  }
  vis::Id nodeId(vis::Id i, vis::Id j, vis::Id k) const {
    return i + pointDims_.i * (j + pointDims_.j * k);
  }
};

/// Workload profile of `steps` hydro steps on a `cellsPerAxis`^3 grid:
/// one "hydro-step" phase per step (the in situ pipeline and the budget
/// advisor charge the simulation side its own power and time).  Every
/// count is a closed form in the cell and node counts, so the profile is
/// written down, not measured by running the proxy.
vis::KernelProfile hydroProfile(vis::Id cellsPerAxis, int steps);

/// Fast analytic stand-in for an evolved CloverLeaf energy field: an
/// expanding corner blast with a smooth front and a radial outflow
/// velocity.  Used where time-stepping the proxy would be wasteful
/// (large benchmark grids); `front` positions the blast front as a
/// fraction of the domain diagonal.
vis::UniformGrid makeCloverField(util::ExecutionContext& ctx,
                                 vis::Id cellsPerAxis, double front = 0.55);
/// Kept for perfbench: makeCloverField(ctx, ...) on a default
/// ExecutionContext (global pool, default backend).
vis::UniformGrid makeCloverField(vis::Id cellsPerAxis, double front = 0.55);

}  // namespace pviz::sim
