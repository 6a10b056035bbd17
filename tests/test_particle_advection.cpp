// Particle advection (RK4 streamline) tests.
#include <gtest/gtest.h>

#include <cmath>

#include "util/exec_context.h"
#include "viz/filters/particle_advection.h"

namespace pviz::vis {
namespace {

UniformGrid constantFlow(Id cells, Vec3 v) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("velocity", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) f.setVec3(p, v);
  g.addField(std::move(f));
  return g;
}

// Rigid rotation about the domain center in the x-y plane.
UniformGrid rotationFlow(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("velocity", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 pos = g.pointPosition(p) - Vec3{0.5, 0.5, 0.5};
    f.setVec3(p, {-pos.y, pos.x, 0.0});
  }
  g.addField(std::move(f));
  return g;
}

TEST(ParticleAdvection, ZeroFieldParticlesStayPut) {
  util::ExecutionContext ctx;
  const UniformGrid g = constantFlow(6, {0, 0, 0});
  ParticleAdvectionFilter filter;
  filter.setSeedCount(20);
  filter.setMaxSteps(50);
  const auto result = filter.run(ctx, g, "velocity");
  EXPECT_EQ(result.streamlines.numLines(), 20);
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    const Id first = result.streamlines.offsets[static_cast<std::size_t>(l)];
    const Id last =
        result.streamlines.offsets[static_cast<std::size_t>(l) + 1] - 1;
    const Vec3 d = result.streamlines.points[static_cast<std::size_t>(last)] -
                   result.streamlines.points[static_cast<std::size_t>(first)];
    ASSERT_NEAR(length(d), 0.0, 1e-12);
  }
}

TEST(ParticleAdvection, ConstantFlowGivesStraightLinesOfExactLength) {
  util::ExecutionContext ctx;
  const Vec3 v{0.3, 0.1, 0.05};
  const UniformGrid g = constantFlow(8, v);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(10);
  filter.setMaxSteps(40);
  filter.setStepLength(0.01);
  const auto result = filter.run(ctx, g, "velocity");
  // For a constant field, RK4 moves exactly h*v per step.
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    const Id first = result.streamlines.offsets[static_cast<std::size_t>(l)];
    const Id count = result.streamlines.lineSize(l);
    for (Id k = 1; k < count; ++k) {
      const Vec3 step =
          result.streamlines.points[static_cast<std::size_t>(first + k)] -
          result.streamlines.points[static_cast<std::size_t>(first + k - 1)];
      ASSERT_NEAR(step.x, v.x * 0.01, 1e-12);
      ASSERT_NEAR(step.y, v.y * 0.01, 1e-12);
      ASSERT_NEAR(step.z, v.z * 0.01, 1e-12);
    }
  }
}

TEST(ParticleAdvection, RotationKeepsRadiusInvariant) {
  util::ExecutionContext ctx;
  const UniformGrid g = rotationFlow(32);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(50);
  filter.setMaxSteps(200);
  filter.setStepLength(0.01);
  const auto result = filter.run(ctx, g, "velocity");
  // RK4 on a rigid rotation preserves radius to high order; verify the
  // first few hundred steps keep |r| within a tight tolerance.
  Id checked = 0;
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    const Id first = result.streamlines.offsets[static_cast<std::size_t>(l)];
    const Id count = result.streamlines.lineSize(l);
    if (count < 10) continue;
    const Vec3 c{0.5, 0.5, 0.5};
    const Vec3 p0 =
        result.streamlines.points[static_cast<std::size_t>(first)] - c;
    const double r0 = std::hypot(p0.x, p0.y);
    if (r0 < 0.05) continue;
    for (Id k = 0; k < count; ++k) {
      const Vec3 p =
          result.streamlines.points[static_cast<std::size_t>(first + k)] - c;
      ASSERT_NEAR(std::hypot(p.x, p.y), r0, r0 * 0.02 + 2e-3);
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(ParticleAdvection, OutflowTerminatesParticles) {
  util::ExecutionContext ctx;
  const UniformGrid g = constantFlow(8, {1.0, 0, 0});
  ParticleAdvectionFilter filter;
  filter.setSeedCount(30);
  filter.setMaxSteps(100000);
  filter.setStepLength(0.01);
  const auto result = filter.run(ctx, g, "velocity");
  // Everything flows out the +x face long before the step limit.
  EXPECT_EQ(result.terminated, 30);
  EXPECT_LT(result.totalSteps, 30 * 120);
  for (const auto& p : result.streamlines.points) {
    ASSERT_LE(p.x, 1.0 + 1e-9);
  }
}

TEST(ParticleAdvection, DeterministicAcrossRuns) {
  util::ExecutionContext ctx;
  const UniformGrid g = rotationFlow(12);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(25);
  filter.setMaxSteps(60);
  const auto a = filter.run(ctx, g, "velocity");
  const auto b = filter.run(ctx, g, "velocity");
  ASSERT_EQ(a.streamlines.points.size(), b.streamlines.points.size());
  for (std::size_t i = 0; i < a.streamlines.points.size(); ++i) {
    ASSERT_EQ(a.streamlines.points[i], b.streamlines.points[i]);
  }
  EXPECT_EQ(a.totalSteps, b.totalSteps);
}

TEST(ParticleAdvection, SeedRngChangesSeeds) {
  util::ExecutionContext ctx;
  const UniformGrid g = rotationFlow(12);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(5);
  filter.setMaxSteps(5);
  const auto a = filter.run(ctx, g, "velocity");
  filter.setSeedRngSeed(777);
  const auto b = filter.run(ctx, g, "velocity");
  EXPECT_FALSE(a.streamlines.points[0] == b.streamlines.points[0]);
}

TEST(ParticleAdvection, ScalarsRecordIntegrationTime) {
  util::ExecutionContext ctx;
  const UniformGrid g = constantFlow(8, {0.5, 0, 0});
  ParticleAdvectionFilter filter;
  filter.setSeedCount(3);
  filter.setMaxSteps(10);
  filter.setStepLength(0.002);
  const auto result = filter.run(ctx, g, "velocity");
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    const Id first = result.streamlines.offsets[static_cast<std::size_t>(l)];
    const Id count = result.streamlines.lineSize(l);
    for (Id k = 0; k < count; ++k) {
      ASSERT_NEAR(
          result.streamlines.pointScalars[static_cast<std::size_t>(first + k)],
          static_cast<double>(k) * 0.002, 1e-12);
    }
  }
}

TEST(ParticleAdvection, ValidatesParameters) {
  util::ExecutionContext ctx;
  ParticleAdvectionFilter filter;
  EXPECT_THROW(filter.setSeedCount(-1), Error);
  EXPECT_NO_THROW(filter.setSeedCount(0));  // degenerate but valid
  EXPECT_THROW(filter.setMaxSteps(0), Error);
  EXPECT_THROW(filter.setStepLength(0.0), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("s", Association::Points, 1, g.numPoints()));
  EXPECT_THROW(filter.run(ctx, g, "s"), Error);
}

TEST(ParticleAdvection, ZeroSeedsYieldCanonicalEmptyPolylineSet) {
  util::ExecutionContext ctx;
  // Zero seeds is the degenerate-but-valid floor of the flow workload
  // axis: the run completes, and the output is the one canonical empty
  // PolylineSet (single sentinel offset, no points, no scalars) so that
  // downstream writers and the service cache see a stable shape.
  const UniformGrid g = rotationFlow(8);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(0);
  filter.setMaxSteps(30);
  const auto result = filter.run(ctx, g, "velocity");
  EXPECT_EQ(result.streamlines.numLines(), 0);
  EXPECT_EQ(result.streamlines.offsets, (util::Buffer<Id>{0}));
  EXPECT_TRUE(result.streamlines.points.empty());
  EXPECT_TRUE(result.streamlines.pointScalars.empty());
  EXPECT_EQ(result.totalSteps, 0);
}

TEST(ParticleAdvection, SingleSeedTracesExactlyOneLine) {
  util::ExecutionContext ctx;
  const UniformGrid g = rotationFlow(8);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(1);
  filter.setMaxSteps(30);
  const auto result = filter.run(ctx, g, "velocity");
  ASSERT_EQ(result.streamlines.numLines(), 1);
  ASSERT_EQ(result.streamlines.offsets.size(), 2u);
  EXPECT_EQ(result.streamlines.offsets[0], 0);
  EXPECT_EQ(result.streamlines.offsets[1],
            static_cast<Id>(result.streamlines.points.size()));
  EXPECT_GT(result.streamlines.points.size(), 1u);
  EXPECT_EQ(result.streamlines.pointScalars.size(),
            result.streamlines.points.size());

  // A repeat run reproduces the identical line (counter-based seeding).
  const auto again = filter.run(ctx, g, "velocity");
  EXPECT_EQ(again.streamlines.offsets, result.streamlines.offsets);
  for (std::size_t i = 0; i < result.streamlines.points.size(); ++i) {
    EXPECT_EQ(again.streamlines.points[i], result.streamlines.points[i]);
  }
}

TEST(ParticleAdvection, ProfileCountsTrackSteps) {
  util::ExecutionContext ctx;
  const UniformGrid g = rotationFlow(10);
  ParticleAdvectionFilter filter;
  filter.setSeedCount(40);
  filter.setMaxSteps(30);
  const auto result = filter.run(ctx, g, "velocity");
  EXPECT_EQ(result.profile.kernel, "particle-advection");
  EXPECT_GT(result.totalSteps, 0);
  // Advection flops scale linearly with the steps actually taken.
  const auto& advect = result.profile.phases.front();
  EXPECT_DOUBLE_EQ(advect.flops,
                   static_cast<double>(result.totalSteps) * (4 * 158 + 56));
}

TEST(ParticleAdvection, PathlineIdenticalFieldsMatchStreamline) {
  // With both window endpoints equal, the blend is the steady field at
  // every stage — pathlines must retrace the streamlines, up to the
  // t = 1 completion cutoff (avoided here: maxSteps*h < 1).  The match
  // is within rounding, not bitwise: the blend v0*(1-tt) + v1*tt with
  // v0 == v1 perturbs the last bit for tt > 0.
  UniformGrid g = rotationFlow(10);
  g.addField(Field("velocity2", Association::Points, 3,
                   g.field("velocity").data()));
  ParticleAdvectionFilter filter;
  filter.setSeedCount(30);
  filter.setMaxSteps(40);
  filter.setStepLength(0.01);  // 40 steps cover t ∈ [0, 0.4]
  util::ExecutionContext ctx;
  const auto stream = filter.run(ctx, g, "velocity");
  const auto path = filter.run(ctx, g, "velocity", "velocity2");
  EXPECT_EQ(path.completed, 0);
  ASSERT_EQ(path.streamlines.points.size(), stream.streamlines.points.size());
  EXPECT_EQ(path.streamlines.offsets, stream.streamlines.offsets);
  for (std::size_t i = 0; i < stream.streamlines.points.size(); ++i) {
    EXPECT_NEAR(path.streamlines.points[i].x, stream.streamlines.points[i].x,
                1e-9);
    EXPECT_NEAR(path.streamlines.points[i].y, stream.streamlines.points[i].y,
                1e-9);
    EXPECT_NEAR(path.streamlines.points[i].z, stream.streamlines.points[i].z,
                1e-9);
  }
}

TEST(ParticleAdvection, PathlineCompletesAtWindowEnd) {
  // Zero flow both ends: nothing terminates, so every particle crosses
  // t = 1 after exactly ceil(1/h) steps and stops there.
  UniformGrid g = constantFlow(6, {0, 0, 0});
  g.addField(Field("velocity2", Association::Points, 3,
                   g.field("velocity").data()));
  ParticleAdvectionFilter filter;
  filter.setSeedCount(15);
  filter.setMaxSteps(500);
  filter.setStepLength(0.04);  // 25 steps to t = 1
  util::ExecutionContext ctx;
  const auto result = filter.run(ctx, g, "velocity", "velocity2");
  EXPECT_EQ(result.completed, 15);
  EXPECT_EQ(result.terminated, 0);
  EXPECT_EQ(result.totalSteps, 15 * 25);
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    EXPECT_EQ(result.streamlines.lineSize(l), 26);
  }
}

TEST(ParticleAdvection, PathlineBlendsTheTwoFields) {
  // Constant v0 at t=0, constant v1 at t=1: the blended velocity at the
  // RK4 stages differs from either endpoint, so the pathline must leave
  // the straight streamline track of both.
  UniformGrid g = constantFlow(8, {0.3, 0.0, 0.0});
  Field f1 = Field::zeros("velocity2", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) f1.setVec3(p, {0.0, 0.3, 0.0});
  g.addField(std::move(f1));
  ParticleAdvectionFilter filter;
  filter.setSeedCount(5);
  filter.setMaxSteps(100);
  filter.setStepLength(0.02);
  util::ExecutionContext ctx;
  const auto result = filter.run(ctx, g, "velocity", "velocity2");
  // Early in the window velocity ≈ (0.3, 0, 0); late ≈ (0, 0.3, 0).
  // Each surviving line must therefore bend: displacement in both x
  // and y for any particle that integrated most of the window.
  bool sawBend = false;
  for (Id l = 0; l < result.streamlines.numLines(); ++l) {
    if (result.streamlines.lineSize(l) < 40) continue;
    const auto first =
        static_cast<std::size_t>(result.streamlines.offsets[l]);
    const auto last = static_cast<std::size_t>(
        result.streamlines.offsets[l + 1] - 1);
    const Vec3 d = result.streamlines.points[last] -
                   result.streamlines.points[first];
    EXPECT_GT(d.x, 0.0);
    EXPECT_GT(d.y, 0.0);
    sawBend = true;
  }
  EXPECT_TRUE(sawBend);
}

TEST(ParticleAdvection, CounterBasedSeedingIsPerIndex) {
  const Bounds box{{0, 0, 0}, {1, 2, 3}};
  const Vec3 a = ParticleAdvectionFilter::seedPosition(box, 42, 7);
  // Same (seed, index) → same position; different index or seed → moved.
  EXPECT_EQ(a, ParticleAdvectionFilter::seedPosition(box, 42, 7));
  EXPECT_NE(a, ParticleAdvectionFilter::seedPosition(box, 42, 8));
  EXPECT_NE(a, ParticleAdvectionFilter::seedPosition(box, 43, 7));
  EXPECT_TRUE(box.contains(a));
}

TEST(ParticleAdvection, ParsesModeTokens) {
  using Filter = ParticleAdvectionFilter;
  EXPECT_EQ(Filter::parseMode("streamline"), Filter::Mode::Streamline);
  EXPECT_EQ(Filter::parseMode("pathline"), Filter::Mode::Pathline);
  EXPECT_STREQ(Filter::modeToken(Filter::Mode::Pathline), "pathline");
  EXPECT_THROW(Filter::parseMode("spiral"), Error);
}

}  // namespace
}  // namespace pviz::vis
