#include "sim/cloverleaf.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/parallel.h"

namespace pviz::sim {

using vis::Id;
using vis::Id3;

CloverLeaf::CloverLeaf(util::ExecutionContext& ctx, Id cellsPerAxis,
                       CloverConfig config)
    : cellsPerAxis_(cellsPerAxis),
      cellDims_{cellsPerAxis, cellsPerAxis, cellsPerAxis},
      pointDims_{cellsPerAxis + 1, cellsPerAxis + 1, cellsPerAxis + 1},
      h_(1.0 / static_cast<double>(cellsPerAxis)),
      config_(config) {
  PVIZ_REQUIRE(cellsPerAxis >= 4, "CloverLeaf needs at least 4^3 cells");
  const auto nc = static_cast<std::size_t>(cellDims_.product());
  const auto np = static_cast<std::size_t>(pointDims_.product());
  density_.assign(nc, config_.ambientDensity);
  energy_.assign(nc, config_.ambientEnergy);
  pressure_.assign(nc, 0.0);
  soundspeed_.assign(nc, 0.0);
  velX_.assign(np, 0.0);
  velY_.assign(np, 0.0);
  velZ_.assign(np, 0.0);
  scratchA_.assign(nc, 0.0);
  scratchB_.assign(nc, 0.0);

  // Two-state initial condition: dense, hot corner region.
  const double extent = config_.blastExtent;
  util::parallelFor(ctx, 0, cellDims_.product(), [&](Id c) {
    const Id i = c % cellDims_.i;
    const Id j = (c / cellDims_.i) % cellDims_.j;
    const Id k = c / (cellDims_.i * cellDims_.j);
    const double x = (static_cast<double>(i) + 0.5) * h_;
    const double y = (static_cast<double>(j) + 0.5) * h_;
    const double z = (static_cast<double>(k) + 0.5) * h_;
    if (x < extent && y < extent && z < extent) {
      density_[static_cast<std::size_t>(c)] = config_.blastDensity;
      energy_[static_cast<std::size_t>(c)] = config_.blastEnergy;
    }
  });
  equationOfState(ctx);
}

// The temporary context lives until the delegated constructor returns.
CloverLeaf::CloverLeaf(Id cellsPerAxis)
    : CloverLeaf(*std::make_unique<util::ExecutionContext>(), cellsPerAxis) {}

void CloverLeaf::run(int n) {
  util::ExecutionContext ctx;
  run(ctx, n);
}

void CloverLeaf::equationOfState(util::ExecutionContext& ctx) {
  const double gm1 = config_.gamma - 1.0;
  util::parallelFor(ctx, 0, cellDims_.product(), [&](Id c) {
    const auto i = static_cast<std::size_t>(c);
    pressure_[i] = gm1 * density_[i] * energy_[i];
    soundspeed_[i] = std::sqrt(config_.gamma * pressure_[i] /
                               std::max(density_[i], 1e-12));
  });
}

double CloverLeaf::computeDt() const {
  double maxSpeed = 1e-12;
  for (std::size_t c = 0; c < soundspeed_.size(); ++c) {
    maxSpeed = std::max(maxSpeed, soundspeed_[c]);
  }
  for (std::size_t n = 0; n < velX_.size(); ++n) {
    const double speed = std::sqrt(velX_[n] * velX_[n] + velY_[n] * velY_[n] +
                                   velZ_[n] * velZ_[n]);
    maxSpeed = std::max(maxSpeed, speed + 1e-12);
  }
  return config_.cfl * h_ / maxSpeed;
}

void CloverLeaf::accelerate(util::ExecutionContext& ctx, double dt) {
  // Node acceleration from the pressure gradient of adjacent cells.
  util::parallelFor(ctx, 0, pointDims_.product(), [&](Id n) {
    const Id i = n % pointDims_.i;
    const Id j = (n / pointDims_.i) % pointDims_.j;
    const Id k = n / (pointDims_.i * pointDims_.j);
    // Interior nodes only; boundary nodes stay fixed (reflective walls).
    if (i == 0 || j == 0 || k == 0 || i == cellDims_.i || j == cellDims_.j ||
        k == cellDims_.k) {
      return;
    }
    // The eight cells sharing this node.
    double gradX = 0.0, gradY = 0.0, gradZ = 0.0, rhoAvg = 0.0;
    for (Id dk = -1; dk <= 0; ++dk) {
      for (Id dj = -1; dj <= 0; ++dj) {
        for (Id di = -1; di <= 0; ++di) {
          const auto c = static_cast<std::size_t>(
              cellId(i + di, j + dj, k + dk));
          const double p = pressure_[c];
          gradX += (di == 0 ? p : -p);
          gradY += (dj == 0 ? p : -p);
          gradZ += (dk == 0 ? p : -p);
          rhoAvg += density_[c];
        }
      }
    }
    rhoAvg *= 0.125;
    const double scale = dt / (4.0 * h_ * std::max(rhoAvg, 1e-12));
    const auto ni = static_cast<std::size_t>(n);
    velX_[ni] -= scale * gradX;
    velY_[ni] -= scale * gradY;
    velZ_[ni] -= scale * gradZ;
  });
}

void CloverLeaf::pdvAndViscosity(util::ExecutionContext& ctx, double dt) {
  // PdV work: e -= dt * p * div(u) / rho, with a linear artificial
  // viscosity damping compressive shocks.
  util::parallelFor(ctx, 0, cellDims_.product(), [&](Id c) {
    const Id i = c % cellDims_.i;
    const Id j = (c / cellDims_.i) % cellDims_.j;
    const Id k = c / (cellDims_.i * cellDims_.j);
    // Face-average velocity differences over the cell's 8 nodes.
    double divX = 0.0, divY = 0.0, divZ = 0.0;
    for (Id dk = 0; dk <= 1; ++dk) {
      for (Id dj = 0; dj <= 1; ++dj) {
        for (Id di = 0; di <= 1; ++di) {
          const auto n = static_cast<std::size_t>(
              nodeId(i + di, j + dj, k + dk));
          divX += (di == 1 ? velX_[n] : -velX_[n]);
          divY += (dj == 1 ? velY_[n] : -velY_[n]);
          divZ += (dk == 1 ? velZ_[n] : -velZ_[n]);
        }
      }
    }
    const double divergence = (divX + divY + divZ) / (4.0 * h_);
    const auto ci = static_cast<std::size_t>(c);
    double p = pressure_[ci];
    if (divergence < 0.0) {  // compression: add viscous pressure
      p += config_.viscosity * density_[ci] * soundspeed_[ci] *
           (-divergence) * h_;
    }
    const double de = -dt * p * divergence / std::max(density_[ci], 1e-12);
    energy_[ci] = std::max(energy_[ci] + de, 1e-12);
  });
}

void CloverLeaf::advect(util::ExecutionContext& ctx, double dt) {
  // Donor-cell (first-order upwind) advection of density and energy
  // using face velocities averaged from node velocities.  Flux form, so
  // mass is conserved to round-off.
  const Id3 cd = cellDims_;
  auto faceVel = [&](Id i, Id j, Id k, int axis) {
    // Average the four node velocities on the lower face of cell (i,j,k)
    // along `axis`.
    double v = 0.0;
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        std::size_t n;
        if (axis == 0) {
          n = static_cast<std::size_t>(nodeId(i, j + a, k + b));
          v += velX_[n];
        } else if (axis == 1) {
          n = static_cast<std::size_t>(nodeId(i + a, j, k + b));
          v += velY_[n];
        } else {
          n = static_cast<std::size_t>(nodeId(i + a, j + b, k));
          v += velZ_[n];
        }
      }
    }
    return v * 0.25;
  };

  // Mass advection with energy carried per unit mass.
  std::vector<double>& newDensity = scratchA_;
  std::vector<double>& newEnergyMass = scratchB_;  // rho * e
  util::parallelFor(ctx, 0, cd.product(), [&](Id c) {
    const Id i = c % cd.i;
    const Id j = (c / cd.i) % cd.j;
    const Id k = c / (cd.i * cd.j);
    const auto ci = static_cast<std::size_t>(c);

    double massFlux = 0.0;
    double energyFlux = 0.0;
    // For each axis, flux through the lower and upper faces.
    for (int axis = 0; axis < 3; ++axis) {
      const Id ii[3] = {i, j, k};
      for (int side = 0; side <= 1; ++side) {
        Id fi = i, fj = j, fk = k;
        if (axis == 0) fi += side;
        if (axis == 1) fj += side;
        if (axis == 2) fk += side;
        // Skip domain-boundary faces (reflective: no flux).
        const Id facePos = (axis == 0 ? fi : (axis == 1 ? fj : fk));
        const Id axMax = (axis == 0 ? cd.i : (axis == 1 ? cd.j : cd.k));
        if (facePos == 0 || facePos == axMax) continue;
        const double v = faceVel(fi, fj, fk, axis);
        // Donor cell: the upwind side supplies the advected state.
        Id ui = i, uj = j, uk = k;
        if (side == 0) {  // lower face: inflow when v > 0 (from below)
          if (v > 0.0) {
            if (axis == 0) ui = i - 1;
            if (axis == 1) uj = j - 1;
            if (axis == 2) uk = k - 1;
          }
        } else {  // upper face: outflow when v > 0
          if (v > 0.0) {
            // donor is this cell
          } else {
            if (axis == 0) ui = i + 1;
            if (axis == 1) uj = j + 1;
            if (axis == 2) uk = k + 1;
          }
        }
        const auto donor = static_cast<std::size_t>(cellId(ui, uj, uk));
        const double sign = (side == 0) ? 1.0 : -1.0;  // inflow positive
        const double flux = sign * v * dt / h_;
        massFlux += flux * density_[donor];
        energyFlux += flux * density_[donor] * energy_[donor];
        (void)ii;
      }
    }
    const double m0 = density_[ci];
    const double e0 = m0 * energy_[ci];
    newDensity[ci] = std::max(m0 + massFlux, 1e-12);
    newEnergyMass[ci] = std::max(e0 + energyFlux, 1e-15);
  });
  std::swap(density_, newDensity);
  util::parallelFor(ctx, 0, cd.product(), [&](Id c) {
    const auto ci = static_cast<std::size_t>(c);
    energy_[ci] = newEnergyMass[ci] / density_[ci];
  });
}

double CloverLeaf::step(util::ExecutionContext& ctx) {
  const double dt = computeDt();
  accelerate(ctx, dt);
  pdvAndViscosity(ctx, dt);
  advect(ctx, dt);
  equationOfState(ctx);
  ++steps_;
  time_ += dt;
  return dt;
}

double CloverLeaf::totalMass() const {
  double mass = 0.0;
  const double vol = h_ * h_ * h_;
  for (double rho : density_) mass += rho * vol;
  return mass;
}

double CloverLeaf::totalEnergy() const {
  const double vol = h_ * h_ * h_;
  double internal = 0.0;
  for (std::size_t c = 0; c < density_.size(); ++c) {
    internal += density_[c] * energy_[c] * vol;
  }
  // Kinetic energy from node velocities with node-lumped mass.
  double kinetic = 0.0;
  for (Id k = 0; k < pointDims_.k; ++k) {
    for (Id j = 0; j < pointDims_.j; ++j) {
      for (Id i = 0; i < pointDims_.i; ++i) {
        const auto n = static_cast<std::size_t>(nodeId(i, j, k));
        const double v2 = velX_[n] * velX_[n] + velY_[n] * velY_[n] +
                          velZ_[n] * velZ_[n];
        // Approximate nodal mass: average of adjacent cell densities.
        double rho = 0.0;
        int count = 0;
        for (Id dk = -1; dk <= 0; ++dk) {
          for (Id dj = -1; dj <= 0; ++dj) {
            for (Id di = -1; di <= 0; ++di) {
              const Id ci = i + di, cj = j + dj, ck = k + dk;
              if (ci < 0 || cj < 0 || ck < 0 || ci >= cellDims_.i ||
                  cj >= cellDims_.j || ck >= cellDims_.k) {
                continue;
              }
              rho += density_[static_cast<std::size_t>(cellId(ci, cj, ck))];
              ++count;
            }
          }
        }
        kinetic += 0.5 * (rho / std::max(count, 1)) * v2 * vol;
      }
    }
  }
  return internal + kinetic;
}

double CloverLeaf::minDensity() const {
  double lo = 1e300;
  for (double rho : density_) lo = std::min(lo, rho);
  return lo;
}

vis::UniformGrid CloverLeaf::exportForViz(util::ExecutionContext& ctx) const {
  vis::UniformGrid grid(pointDims_, {0, 0, 0}, {h_, h_, h_});

  // Cell-to-point averaged energy.
  vis::Field energy = vis::Field::forOverwrite(
      "energy", vis::Association::Points, 1, grid.numPoints());
  util::Buffer<double>& e = energy.data();
  util::parallelFor(ctx, 0, grid.numPoints(), [&](Id n) {
    const Id i = n % pointDims_.i;
    const Id j = (n / pointDims_.i) % pointDims_.j;
    const Id k = n / (pointDims_.i * pointDims_.j);
    double sum = 0.0;
    int count = 0;
    for (Id dk = -1; dk <= 0; ++dk) {
      for (Id dj = -1; dj <= 0; ++dj) {
        for (Id di = -1; di <= 0; ++di) {
          const Id ci = i + di, cj = j + dj, ck = k + dk;
          if (ci < 0 || cj < 0 || ck < 0 || ci >= cellDims_.i ||
              cj >= cellDims_.j || ck >= cellDims_.k) {
            continue;
          }
          sum += energy_[static_cast<std::size_t>(cellId(ci, cj, ck))];
          ++count;
        }
      }
    }
    e[static_cast<std::size_t>(n)] = sum / std::max(count, 1);
  });
  grid.addField(std::move(energy));

  vis::Field velocity = vis::Field::forOverwrite(
      "velocity", vis::Association::Points, 3, grid.numPoints());
  util::Buffer<double>& v = velocity.data();
  util::parallelFor(ctx, 0, grid.numPoints(), [&](Id n) {
    const auto ni = static_cast<std::size_t>(n);
    v[ni * 3] = velX_[ni];
    v[ni * 3 + 1] = velY_[ni];
    v[ni * 3 + 2] = velZ_[ni];
  });
  grid.addField(std::move(velocity));
  return grid;
}

vis::KernelProfile hydroProfile(Id cellsPerAxis, int steps) {
  PVIZ_REQUIRE(cellsPerAxis >= 4, "CloverLeaf needs at least 4^3 cells");
  PVIZ_REQUIRE(steps >= 0, "hydro step count must be non-negative");
  const Id cellCount = cellsPerAxis * cellsPerAxis * cellsPerAxis;
  const Id nodesPerAxis = cellsPerAxis + 1;
  vis::KernelProfile profile;
  profile.kernel = "cloverleaf";
  profile.elements = cellCount;

  // Classic stencil sweeps: high FP density AND full-field streaming,
  // like the compute-bound HPC codes the paper contrasts visualization
  // against.
  const double cells = static_cast<double>(cellCount);
  const double nodes =
      static_cast<double>(nodesPerAxis * nodesPerAxis * nodesPerAxis);
  for (int s = 0; s < steps; ++s) {
    vis::WorkProfile& hydro = profile.addPhase("hydro-step");
    hydro.flops = cells * 190 + nodes * 70;
    hydro.intOps = cells * 120 + nodes * 40;
    hydro.memOps = cells * 70 + nodes * 30;
    hydro.bytesStreamed = cells * 8 * 14 + nodes * 8 * 6;
    hydro.bytesReused = cells * 8 * 30;
    hydro.workingSetBytes = cells * 8 * 6;
    hydro.parallelFraction = 0.99;
    hydro.overlap = 0.8;
  }
  return profile;
}

vis::UniformGrid makeCloverField(util::ExecutionContext& ctx, Id cellsPerAxis,
                                 double front) {
  PVIZ_REQUIRE(cellsPerAxis >= 2, "need at least 2 cells per axis");
  PVIZ_REQUIRE(front > 0.0 && front < 1.5, "front must be in (0, 1.5)");
  vis::UniformGrid grid = vis::UniformGrid::cube(cellsPerAxis);
  const Id numPoints = grid.numPoints();

  vis::Field energy = vis::Field::forOverwrite(
      "energy", vis::Association::Points, 1, numPoints);
  vis::Field velocity = vis::Field::forOverwrite(
      "velocity", vis::Association::Points, 3, numPoints);
  util::Buffer<double>& e = energy.data();
  util::Buffer<double>& v = velocity.data();

  const double frontRadius = front * std::sqrt(3.0);
  util::parallelFor(ctx, 0, numPoints, [&](Id n) {
    const vis::Vec3 p = grid.pointPosition(n);
    const double r = length(p);  // distance from the blast corner (origin)
    // Smooth expanding front with trailing ripples (mimics the shocked
    // CloverLeaf energy field at a mature time step).
    const double w = 0.08;
    const double sigmoid = 1.0 / (1.0 + std::exp((r - frontRadius) / w));
    const double ripple =
        0.12 * std::sin(18.0 * r) * std::exp(-3.0 * r) * sigmoid;
    e[static_cast<std::size_t>(n)] = 1.0 + 1.5 * sigmoid + ripple;

    // Radial outflow peaking at the front, plus a gentle swirl so
    // streamlines curve.
    const double radial =
        0.8 * std::exp(-((r - frontRadius) * (r - frontRadius)) / (2 * w * w) * 0.5);
    const vis::Vec3 dir = r > 1e-9 ? p / r : vis::Vec3{0, 0, 0};
    const vis::Vec3 swirl{-p.y, p.x, 0.15};
    const vis::Vec3 vel = dir * radial + swirl * 0.25;
    v[static_cast<std::size_t>(n) * 3] = vel.x;
    v[static_cast<std::size_t>(n) * 3 + 1] = vel.y;
    v[static_cast<std::size_t>(n) * 3 + 2] = vel.z;
  });
  grid.addField(std::move(energy));
  grid.addField(std::move(velocity));
  return grid;
}

vis::UniformGrid makeCloverField(Id cellsPerAxis, double front) {
  util::ExecutionContext ctx;
  return makeCloverField(ctx, cellsPerAxis, front);
}

}  // namespace pviz::sim
