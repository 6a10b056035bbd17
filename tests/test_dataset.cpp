// UniformGrid and Field tests.
#include <gtest/gtest.h>

#include "util/exec_context.h"
#include "util/rng.h"
#include "viz/dataset/uniform_grid.h"

namespace pviz::vis {
namespace {

UniformGrid makeGrid() {
  return UniformGrid({4, 5, 6}, {1, 2, 3}, {0.5, 0.25, 0.125});
}

TEST(Field, ConstructionAndAccess) {
  Field f("f", Association::Points, 1, {1.0, 2.0, 3.0});
  EXPECT_EQ(f.count(), 3);
  EXPECT_EQ(f.components(), 1);
  EXPECT_EQ(f.value(1), 2.0);
  f.setScalar(1, 9.0);
  EXPECT_EQ(f.value(1), 9.0);
  EXPECT_EQ(f.sizeBytes(), 24.0);
}

TEST(Field, VectorTuples) {
  Field v = Field::zeros("v", Association::Points, 3, 2);
  v.setVec3(1, {1, 2, 3});
  EXPECT_EQ(v.vec3(1), (Vec3{1, 2, 3}));
  EXPECT_EQ(v.vec3(0), (Vec3{0, 0, 0}));
}

TEST(Field, RangeScansFirstComponent) {
  Field f("f", Association::Cells, 2, {5, 100, -1, 200, 3, 300});
  util::ExecutionContext ctx;
  const auto [lo, hi] = f.range(ctx);
  EXPECT_EQ(lo, -1.0);
  EXPECT_EQ(hi, 5.0);
  EXPECT_EQ(Field().range(ctx), (std::pair<double, double>{0.0, 0.0}));
}

TEST(Field, RejectsBadConstruction) {
  EXPECT_THROW(Field("f", Association::Points, 0, {}), Error);
  EXPECT_THROW(Field("f", Association::Points, 2, {1.0}), Error);
}

TEST(UniformGrid, DimsAndCounts) {
  const UniformGrid g = makeGrid();
  EXPECT_EQ(g.numPoints(), 4 * 5 * 6);
  EXPECT_EQ(g.numCells(), 3 * 4 * 5);
  EXPECT_EQ(g.cellDims(), (Id3{3, 4, 5}));
}

TEST(UniformGrid, RejectsDegenerate) {
  EXPECT_THROW(UniformGrid({1, 2, 2}, {0, 0, 0}, {1, 1, 1}), Error);
  EXPECT_THROW(UniformGrid({2, 2, 2}, {0, 0, 0}, {0, 1, 1}), Error);
  EXPECT_THROW(UniformGrid::cube(0), Error);
}

TEST(UniformGrid, PointIndexRoundTrip) {
  const UniformGrid g = makeGrid();
  for (Id flat = 0; flat < g.numPoints(); ++flat) {
    const Id3 ijk = g.pointIjk(flat);
    ASSERT_EQ(g.pointId(ijk), flat);
    ASSERT_GE(ijk.i, 0);
    ASSERT_LT(ijk.i, 4);
    ASSERT_LT(ijk.j, 5);
    ASSERT_LT(ijk.k, 6);
  }
}

TEST(UniformGrid, CellIndexRoundTrip) {
  const UniformGrid g = makeGrid();
  for (Id flat = 0; flat < g.numCells(); ++flat) {
    ASSERT_EQ(g.cellId(g.cellIjk(flat)), flat);
  }
}

TEST(UniformGrid, PointPositions) {
  const UniformGrid g = makeGrid();
  EXPECT_EQ(g.pointPosition(Id3{0, 0, 0}), (Vec3{1, 2, 3}));
  EXPECT_EQ(g.pointPosition(Id3{2, 1, 4}), (Vec3{2, 2.25, 3.5}));
  const Bounds b = g.bounds();
  EXPECT_EQ(b.lo, (Vec3{1, 2, 3}));
  EXPECT_EQ(b.hi, (Vec3{2.5, 3, 3.625}));
}

TEST(UniformGrid, CellPointIdsMatchVtkOrdering) {
  const UniformGrid g = makeGrid();
  Id pts[8];
  g.cellPointIds({1, 2, 3}, pts);
  // Corner 0 at (1,2,3); corner 6 diagonal at (2,3,4).
  EXPECT_EQ(pts[0], g.pointId({1, 2, 3}));
  EXPECT_EQ(pts[1], g.pointId({2, 2, 3}));
  EXPECT_EQ(pts[2], g.pointId({2, 3, 3}));
  EXPECT_EQ(pts[3], g.pointId({1, 3, 3}));
  EXPECT_EQ(pts[4], g.pointId({1, 2, 4}));
  EXPECT_EQ(pts[5], g.pointId({2, 2, 4}));
  EXPECT_EQ(pts[6], g.pointId({2, 3, 4}));
  EXPECT_EQ(pts[7], g.pointId({1, 3, 4}));
}

TEST(UniformGrid, LocateCellInsideOutsideAndBoundary) {
  const UniformGrid g = UniformGrid::cube(4);
  Id3 cell;
  Vec3 t;
  ASSERT_TRUE(g.locateCell({0.3, 0.3, 0.3}, cell, t));
  EXPECT_EQ(cell, (Id3{1, 1, 1}));
  EXPECT_FALSE(g.locateCell({-0.1, 0.5, 0.5}, cell, t));
  EXPECT_FALSE(g.locateCell({0.5, 1.2, 0.5}, cell, t));
  // Upper boundary belongs to the last cell.
  ASSERT_TRUE(g.locateCell({1.0, 1.0, 1.0}, cell, t));
  EXPECT_EQ(cell, (Id3{3, 3, 3}));
  EXPECT_NEAR(t.x, 1.0, 1e-12);
}

TEST(UniformGrid, AddFieldValidatesCount) {
  UniformGrid g = UniformGrid::cube(2);
  EXPECT_THROW(
      g.addField(Field::zeros("bad", Association::Points, 1, 5)), Error);
  g.addField(Field::zeros("pt", Association::Points, 1, g.numPoints()));
  g.addField(Field::zeros("cl", Association::Cells, 1, g.numCells()));
  EXPECT_TRUE(g.hasField("pt"));
  EXPECT_TRUE(g.hasField("cl"));
  EXPECT_THROW(g.field("missing"), Error);
}

// Trilinear interpolation must reproduce any field that is linear in
// x, y, z exactly, at arbitrary sample points.
class TrilinearExactness : public ::testing::TestWithParam<int> {};

TEST_P(TrilinearExactness, ReproducesLinearField) {
  util::Rng rng(GetParam());
  const UniformGrid g = UniformGrid::cube(5);
  const double a = rng.uniform(-2, 2), b = rng.uniform(-2, 2),
               c = rng.uniform(-2, 2), d = rng.uniform(-2, 2);
  Field f = Field::zeros("lin", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 pos = g.pointPosition(p);
    f.setScalar(p, a * pos.x + b * pos.y + c * pos.z + d);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const Vec3 pos{rng.uniform(), rng.uniform(), rng.uniform()};
    double v = 0.0;
    ASSERT_TRUE(g.sampleScalar(f, pos, v));
    ASSERT_NEAR(v, a * pos.x + b * pos.y + c * pos.z + d, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrilinearExactness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(UniformGrid, SampleVectorLinearField) {
  const UniformGrid g = UniformGrid::cube(4);
  Field v = Field::zeros("v", Association::Points, 3, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 pos = g.pointPosition(p);
    v.setVec3(p, {pos.y, pos.z, pos.x});
  }
  Vec3 out;
  ASSERT_TRUE(g.sampleVector(v, {0.25, 0.5, 0.75}, out));
  EXPECT_NEAR(out.x, 0.5, 1e-12);
  EXPECT_NEAR(out.y, 0.75, 1e-12);
  EXPECT_NEAR(out.z, 0.25, 1e-12);
  EXPECT_FALSE(g.sampleVector(v, {2, 0, 0}, out));
}

TEST(UniformGrid, SampleRejectsWrongAssociation) {
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("cl", Association::Cells, 1, g.numCells()));
  double out;
  EXPECT_THROW(g.sampleScalar(g.field("cl"), {0.5, 0.5, 0.5}, out), Error);
}

}  // namespace
}  // namespace pviz::vis
