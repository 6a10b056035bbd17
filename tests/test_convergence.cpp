// Convergence and golden-value regression tests across the numerical
// kernels: these pin down behaviour that the per-feature unit tests
// cannot see (order of accuracy, long-run stability, drift between
// releases).
#include <gtest/gtest.h>

#include <cmath>

#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "viz/filters/contour.h"
#include "viz/filters/particle_advection.h"

namespace pviz {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Contour surface area error against the analytic sphere shrinks as the
// grid refines (first-order in h for marching cubes area).
TEST(Convergence, ContourAreaErrorShrinksWithResolution) {
  util::ExecutionContext ctx;
  auto areaError = [&ctx](vis::Id cells) {
    vis::UniformGrid g = vis::UniformGrid::cube(cells);
    vis::Field f =
        vis::Field::zeros("d", vis::Association::Points, 1, g.numPoints());
    for (vis::Id p = 0; p < g.numPoints(); ++p) {
      f.setScalar(p, length(g.pointPosition(p) - vis::Vec3{0.5, 0.5, 0.5}));
    }
    g.addField(std::move(f));
    vis::ContourFilter filter;
    filter.setIsovalues({0.35});
    const double area = filter.run(ctx, g, "d").surface.totalArea();
    return std::abs(area - 4.0 * kPi * 0.35 * 0.35);
  };
  const double coarse = areaError(12);
  const double medium = areaError(24);
  const double fine = areaError(48);
  EXPECT_LT(medium, coarse);
  EXPECT_LT(fine, medium);
  EXPECT_LT(fine, 0.01);  // within 0.7% of 4*pi*r^2
}

// RK4 order check: advecting one revolution around a rigid rotation and
// comparing the return-to-start error across step sizes.
TEST(Convergence, Rk4ReturnsToStartOnClosedOrbits) {
  util::ExecutionContext ctx;
  vis::UniformGrid g = vis::UniformGrid::cube(48);
  vis::Field v =
      vis::Field::zeros("velocity", vis::Association::Points, 3,
                        g.numPoints());
  for (vis::Id p = 0; p < g.numPoints(); ++p) {
    const vis::Vec3 pos = g.pointPosition(p) - vis::Vec3{0.5, 0.5, 0.5};
    v.setVec3(p, {-2.0 * kPi * pos.y, 2.0 * kPi * pos.x, 0.0});
  }
  g.addField(std::move(v));

  auto orbitError = [&](double h) {
    // One full revolution takes 1/h steps at angular speed 2*pi.
    const auto steps = static_cast<vis::Id>(std::llround(1.0 / h));
    vis::ParticleAdvectionFilter filter;
    filter.setSeedCount(1);
    filter.setMaxSteps(steps);
    filter.setStepLength(h);
    // Deterministic seed: overwrite by choosing a seed RNG that puts
    // the particle near radius 0.2 — instead advect from a fixed point
    // via the sampled field directly.
    const auto result = filter.run(ctx, g, "velocity");
    const auto& line = result.streamlines;
    if (line.numLines() == 0 || line.lineSize(0) < steps) return 1e9;
    const vis::Vec3 start = line.points.front();
    const vis::Vec3 end =
        line.points[static_cast<std::size_t>(line.lineSize(0) - 1)];
    return length(end - start);
  };
  const double coarse = orbitError(0.02);
  const double fine = orbitError(0.005);
  // RK4: 4x smaller steps => ~256x smaller error (allow slack for
  // interpolation error of the sampled field).
  EXPECT_LT(fine, coarse);
  EXPECT_LT(fine, 0.02);
}

// CloverLeaf golden regression: the first steps of the standard blast
// problem at 12^3 must not drift between releases.
TEST(Regression, CloverLeafGoldenValues) {
  util::ExecutionContext ctx;
  sim::CloverLeaf clover(ctx, 12);
  const double dt0 = clover.step(ctx);
  // CFL-limited first step: h / (cfl-adjusted max soundspeed).
  // c_max = sqrt(1.4 * 0.4 * 1.0 * 2.5) = sqrt(1.4) ~ 1.1832.
  EXPECT_NEAR(dt0, 0.5 * (1.0 / 12.0) / std::sqrt(1.4), 1e-9);
  clover.run(ctx, 9);
  EXPECT_EQ(clover.stepCount(), 10);
  // Mass is exactly the initial mass.
  const double expectedMass =
      0.2 + (1.0 - 0.2) * std::pow(3.0 / 12.0, 3.0);
  EXPECT_NEAR(clover.totalMass(), expectedMass, 1e-12);
  // Golden checks with loose tolerance: catches gross numerical drift
  // without over-pinning floating-point details.
  EXPECT_NEAR(clover.time(), 0.35, 0.08);
  EXPECT_GT(clover.minDensity(), 0.15);
  const auto [eLo, eHi] = [&clover] {
    double lo = 1e300, hi = -1e300;
    for (double e : clover.energy()) {
      lo = std::min(lo, e);
      hi = std::max(hi, e);
    }
    return std::pair{lo, hi};
  }();
  EXPECT_GT(eLo, 0.5);
  EXPECT_LT(eHi, 3.0);
}

// The analytic clover field approximates the simulated one: both have
// a hot corner and an ambient far side.
TEST(Regression, AnalyticFieldMatchesSimulatedStructure) {
  util::ExecutionContext ctx;
  sim::CloverLeaf clover(ctx, 16);
  clover.run(ctx, 15);  // early enough that the corner is still clearly hot
  const vis::UniformGrid simulated = clover.exportForViz(ctx);
  const vis::UniformGrid analytic = sim::makeCloverField(ctx, 16, 0.3);
  // The blast energy concentrates in the near-corner octant; compare
  // octant maxima (pointwise values are sensitive to expansion cooling).
  auto octantMaxima = [](const vis::UniformGrid& g) {
    const vis::Field& e = g.field("energy");
    double nearMax = -1e300, farMax = -1e300;
    for (vis::Id p = 0; p < g.numPoints(); ++p) {
      const vis::Id3 ijk = g.pointIjk(p);
      const bool nearOctant = ijk.i < 8 && ijk.j < 8 && ijk.k < 8;
      const bool farOctant = ijk.i >= 8 && ijk.j >= 8 && ijk.k >= 8;
      if (nearOctant) nearMax = std::max(nearMax, e.value(p));
      if (farOctant) farMax = std::max(farMax, e.value(p));
    }
    return std::pair{nearMax, farMax};
  };
  const auto [simNear, simFar] = octantMaxima(simulated);
  const auto [anaNear, anaFar] = octantMaxima(analytic);
  EXPECT_GT(simNear, simFar * 1.3);
  EXPECT_GT(anaNear, anaFar * 1.3);
}

}  // namespace
}  // namespace pviz
