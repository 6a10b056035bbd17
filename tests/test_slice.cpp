// Slice filter tests.
#include <gtest/gtest.h>

#include <cmath>

#include "util/exec_context.h"
#include "viz/filters/slice.h"

namespace pviz::vis {
namespace {

UniformGrid fieldGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("energy", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 pos = g.pointPosition(p);
    f.setScalar(p, pos.x + 2.0 * pos.y - pos.z);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Slice, SinglePlaneHasUnitCrossSection) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(12);
  SliceFilter filter;
  filter.setPlanes({{{0.5, 0.5, 0.5}, {0, 0, 1}}});
  const auto result = filter.run(ctx, g, "energy");
  EXPECT_NEAR(result.surface.totalArea(), 1.0, 1e-9);
}

TEST(Slice, VerticesLieOnThePlane) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(10);
  const Vec3 origin{0.5, 0.5, 0.47};
  const Vec3 normal = normalize(Vec3{1, 1, 1});
  SliceFilter filter;
  filter.setPlanes({{origin, {1, 1, 1}}});  // non-normalized on purpose
  const auto result = filter.run(ctx, g, "energy");
  EXPECT_GT(result.surface.numTriangles(), 0);
  for (const auto& p : result.surface.points) {
    ASSERT_NEAR(dot(p - origin, normal), 0.0, 1e-9);
  }
}

TEST(Slice, DefaultThreePlanesThroughCenter) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(10);
  SliceFilter filter;  // defaults
  const auto result = filter.run(ctx, g, "energy");
  EXPECT_NEAR(result.surface.totalArea(), 3.0, 1e-9);
  EXPECT_EQ(result.profile.kernel, "slice");
}

TEST(Slice, OutputColoredByDataField) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(10);
  SliceFilter filter;
  filter.setPlanes({{{0.5, 0.5, 0.5}, {0, 0, 1}}});
  const auto result = filter.run(ctx, g, "energy");
  ASSERT_EQ(result.surface.pointScalars.size(), result.surface.points.size());
  for (std::size_t i = 0; i < result.surface.points.size(); ++i) {
    const Vec3& p = result.surface.points[i];
    const double expected = p.x + 2.0 * p.y - p.z;
    ASSERT_NEAR(result.surface.pointScalars[i], expected, 1e-9);
  }
}

TEST(Slice, PlaneOutsideDomainProducesNothing) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(6);
  SliceFilter filter;
  filter.setPlanes({{{0, 0, 5.0}, {0, 0, 1}}});
  const auto result = filter.run(ctx, g, "energy");
  EXPECT_EQ(result.surface.numTriangles(), 0);
}

TEST(Slice, ObliquePlaneAreaMatchesAnalytic) {
  util::ExecutionContext ctx;
  // Plane z = x through the unit cube: cross-section is a sqrt(2) x 1
  // rectangle.
  const UniformGrid g = fieldGrid(16);
  SliceFilter filter;
  filter.setPlanes({{{0.5, 0.5, 0.5}, {1, 0, -1}}});
  const auto result = filter.run(ctx, g, "energy");
  EXPECT_NEAR(result.surface.totalArea(), std::sqrt(2.0), 0.01);
}

TEST(Slice, ProfileScalesWithPlaneCount) {
  util::ExecutionContext ctx;
  const UniformGrid g = fieldGrid(8);
  SliceFilter one;
  one.setPlanes({{{0.5, 0.5, 0.5}, {0, 0, 1}}});
  SliceFilter three;  // default three planes
  const auto p1 = one.run(ctx, g, "energy").profile;
  const auto p3 = three.run(ctx, g, "energy").profile;
  double i1 = 0.0, i3 = 0.0;
  for (const auto& ph : p1.phases) {
    if (ph.name == "signed-distance") i1 = ph.instructions();
  }
  for (const auto& ph : p3.phases) {
    if (ph.name == "signed-distance") i3 = ph.instructions();
  }
  EXPECT_NEAR(i3, 3.0 * i1, 1e-6);
}

}  // namespace
}  // namespace pviz::vis
