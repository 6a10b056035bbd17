// CloverLeaf-like hydrodynamics proxy tests.
#include <gtest/gtest.h>

#include <string>

#include "sim/cloverleaf.h"

#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace pviz::sim {
namespace {

TEST(CloverLeaf, InitialConditionIsTwoState) {
  CloverLeaf clover(16);
  const auto& rho = clover.density();
  const auto& e = clover.energy();
  double rhoMin = 1e300, rhoMax = -1e300;
  for (double r : rho) {
    rhoMin = std::min(rhoMin, r);
    rhoMax = std::max(rhoMax, r);
  }
  EXPECT_DOUBLE_EQ(rhoMin, 0.2);
  EXPECT_DOUBLE_EQ(rhoMax, 1.0);
  double eMax = -1e300;
  for (double x : e) eMax = std::max(eMax, x);
  EXPECT_DOUBLE_EQ(eMax, 2.5);
}

TEST(CloverLeaf, MassIsConservedExactly) {
  CloverLeaf clover(12);
  const double mass0 = clover.totalMass();
  clover.run(25);
  EXPECT_NEAR(clover.totalMass(), mass0, mass0 * 1e-12);
}

TEST(CloverLeaf, EnergyStaysBoundedAndPositive) {
  CloverLeaf clover(12);
  const double e0 = clover.totalEnergy();
  clover.run(30);
  const double e1 = clover.totalEnergy();
  EXPECT_GT(e1, 0.0);
  // Explicit scheme with artificial viscosity: energy drifts but must
  // stay the right order of magnitude.
  EXPECT_LT(std::abs(e1 - e0) / e0, 0.2);
}

TEST(CloverLeaf, DensityStaysPositive) {
  CloverLeaf clover(10);
  clover.run(40);
  EXPECT_GT(clover.minDensity(), 0.0);
}

TEST(CloverLeaf, TimeAdvancesWithPositiveSteps) {
  util::ExecutionContext ctx;
  CloverLeaf clover(ctx, 8);
  double last = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double dt = clover.step(ctx);
    EXPECT_GT(dt, 0.0);
    EXPECT_GT(clover.time(), last);
    last = clover.time();
  }
  EXPECT_EQ(clover.stepCount(), 10);
}

TEST(CloverLeaf, BlastExpandsOutwards) {
  CloverLeaf clover(16);
  // Energy-weighted centroid moves away from the blast corner as the
  // hot region expands into the ambient gas.
  auto centroid = [&]() {
    const auto& e = clover.energy();
    const auto& rho = clover.density();
    double cx = 0.0, total = 0.0;
    const vis::Id n = clover.cellsPerAxis();
    for (vis::Id k = 0; k < n; ++k) {
      for (vis::Id j = 0; j < n; ++j) {
        for (vis::Id i = 0; i < n; ++i) {
          const auto c = static_cast<std::size_t>(i + n * (j + n * k));
          const double w = rho[c] * e[c];
          cx += w * (static_cast<double>(i) + 0.5);
          total += w;
        }
      }
    }
    return cx / total;
  };
  const double before = centroid();
  clover.run(60);
  EXPECT_GT(centroid(), before + 1e-3);
}

TEST(CloverLeaf, DeterministicEvolution) {
  CloverLeaf a(10), b(10);
  a.run(15);
  b.run(15);
  ASSERT_EQ(a.density().size(), b.density().size());
  for (std::size_t i = 0; i < a.density().size(); ++i) {
    ASSERT_EQ(a.density()[i], b.density()[i]);
    ASSERT_EQ(a.energy()[i], b.energy()[i]);
  }
}

TEST(CloverLeaf, ExportForVizHasExpectedFields) {
  util::ExecutionContext ctx;
  CloverLeaf clover(ctx, 8);
  clover.run(ctx, 5);
  const vis::UniformGrid grid = clover.exportForViz(ctx);
  EXPECT_EQ(grid.numCells(), 8 * 8 * 8);
  ASSERT_TRUE(grid.hasField("energy"));
  ASSERT_TRUE(grid.hasField("velocity"));
  EXPECT_EQ(grid.field("energy").association(), vis::Association::Points);
  EXPECT_EQ(grid.field("energy").count(), grid.numPoints());
  EXPECT_EQ(grid.field("velocity").components(), 3);
  const auto [lo, hi] = grid.field("energy").range();
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, lo);
}

TEST(HydroProfile, OnePhasePerStepInClosedForm) {
  const vis::KernelProfile p = hydroProfile(8, 3);
  EXPECT_EQ(p.kernel, "cloverleaf");
  EXPECT_EQ(p.elements, 8 * 8 * 8);
  ASSERT_EQ(p.phases.size(), 3u);  // one phase per step
  const double cells = 8.0 * 8 * 8;
  const double nodes = 9.0 * 9 * 9;
  for (const vis::WorkProfile& phase : p.phases) {
    EXPECT_EQ(phase.name, "hydro-step");
    EXPECT_EQ(phase.flops, cells * 190 + nodes * 70);
    EXPECT_EQ(phase.bytesStreamed, cells * 8 * 14 + nodes * 8 * 6);
    EXPECT_EQ(phase.workingSetBytes, cells * 8 * 6);
  }
  EXPECT_TRUE(hydroProfile(8, 0).phases.empty());
}

TEST(HydroProfile, RejectsTinyGridsLikeTheProxy) {
  try {
    hydroProfile(3, 1);
    FAIL() << "expected pviz::Error";
  } catch (const pviz::Error& e) {
    EXPECT_NE(std::string(e.what()).find("CloverLeaf needs at least 4^3 cells"),
              std::string::npos);
  }
}

TEST(CloverLeaf, RejectsTinyGrids) {
  EXPECT_THROW(CloverLeaf(2), pviz::Error);
}

TEST(MakeCloverField, ProducesEnergyAndVelocity) {
  const vis::UniformGrid grid = makeCloverField(16);
  ASSERT_TRUE(grid.hasField("energy"));
  ASSERT_TRUE(grid.hasField("velocity"));
  const auto [lo, hi] = grid.field("energy").range();
  EXPECT_GE(lo, 0.9);
  EXPECT_GT(hi, 2.0);  // the hot region is present
  // Velocity is nonzero somewhere.
  double maxSpeed = 0.0;
  const vis::Field& v = grid.field("velocity");
  for (vis::Id p = 0; p < v.count(); ++p) {
    maxSpeed = std::max(maxSpeed, length(v.vec3(p)));
  }
  EXPECT_GT(maxSpeed, 0.1);
}

TEST(MakeCloverField, FrontParameterMovesTheBlast) {
  const vis::UniformGrid near = makeCloverField(12, 0.2);
  const vis::UniformGrid far = makeCloverField(12, 0.9);
  // With a further front, more of the domain is hot.
  auto hotFraction = [](const vis::UniformGrid& g) {
    const vis::Field& e = g.field("energy");
    vis::Id hot = 0;
    for (vis::Id p = 0; p < e.count(); ++p) {
      if (e.value(p) > 1.75) ++hot;
    }
    return static_cast<double>(hot) / static_cast<double>(e.count());
  };
  EXPECT_GT(hotFraction(far), hotFraction(near) + 0.2);
  EXPECT_THROW(makeCloverField(12, 2.0), pviz::Error);
}

TEST(MakeCloverField, CancelledContextStopsTheBuild) {
  util::ThreadPool pool(2);
  util::ExecutionContext ctx(pool);
  ctx.cancel().cancelAfterPolls(3);
  EXPECT_THROW(makeCloverField(ctx, 128), util::CancelledError);
}

TEST(MakeCloverField, DeterministicAndSizeIndependentStructure) {
  const vis::UniformGrid a = makeCloverField(10);
  const vis::UniformGrid b = makeCloverField(10);
  for (vis::Id p = 0; p < a.numPoints(); ++p) {
    ASSERT_EQ(a.field("energy").value(p), b.field("energy").value(p));
  }
}

}  // namespace
}  // namespace pviz::sim
