// Geometry conversion (filter outputs -> renderable triangles).
#include <gtest/gtest.h>

#include "util/exec_context.h"
#include "viz/dataset/geometry_conversion.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/threshold.h"

namespace pviz::vis {
namespace {

UniformGrid xGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("x", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(HexSubsetToTriangles, OneCellGivesTwelveTriangles) {
  const UniformGrid g = xGrid(4);
  HexSubset subset;
  subset.cellIds = {0};
  subset.cellScalars = {7.0};
  const TriangleMesh mesh = hexSubsetToTriangles(g, subset);
  EXPECT_EQ(mesh.numTriangles(), 12);
  EXPECT_EQ(mesh.numPoints(), 24);
  // Surface area of a 0.25-cube: 6 * 0.0625.
  EXPECT_NEAR(mesh.totalArea(), 6.0 * 0.0625, 1e-12);
  for (double s : mesh.pointScalars) ASSERT_EQ(s, 7.0);
}

TEST(HexSubsetToTriangles, FacesWindOutward) {
  const UniformGrid g = xGrid(2);
  HexSubset subset;
  subset.cellIds = {0};
  subset.cellScalars = {0.0};
  const TriangleMesh mesh = hexSubsetToTriangles(g, subset);
  const Vec3 center{0.25, 0.25, 0.25};  // cell 0 of a 2^3 grid on [0,1]
  for (Id t = 0; t < mesh.numTriangles(); ++t) {
    const Vec3& a = mesh.points[static_cast<std::size_t>(
        mesh.connectivity[static_cast<std::size_t>(3 * t)])];
    const Vec3& b = mesh.points[static_cast<std::size_t>(
        mesh.connectivity[static_cast<std::size_t>(3 * t + 1)])];
    const Vec3& c = mesh.points[static_cast<std::size_t>(
        mesh.connectivity[static_cast<std::size_t>(3 * t + 2)])];
    const Vec3 n = cross(b - a, c - a);
    ASSERT_GT(dot(n, (a + b + c) / 3.0 - center), 0.0) << "triangle " << t;
  }
}

TEST(HexSubsetToTriangles, ThresholdOutputRendersDirectly) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(6);
  ThresholdFilter filter;
  filter.setRange(0.0, 0.5);
  const auto kept = filter.run(ctx, g, "x").kept;
  const TriangleMesh mesh = hexSubsetToTriangles(g, kept);
  EXPECT_EQ(mesh.numTriangles(), kept.numCells() * 12);
  EXPECT_THROW(hexSubsetToTriangles(g, HexSubset{{0, 1}, {1.0}}), Error);
}

TEST(TetMeshToTriangles, VolumePreservingSurfaceCount) {
  // A unit tet -> 4 triangular faces.
  TetMesh tets;
  tets.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  tets.pointScalars = {1, 2, 3, 4};
  const TriangleMesh mesh = tetMeshToTriangles(tets);
  EXPECT_EQ(mesh.numTriangles(), 4);
  // Faces: three right triangles of area 1/2 plus sqrt(3)/2.
  EXPECT_NEAR(mesh.totalArea(), 1.5 + std::sqrt(3.0) / 2.0, 1e-12);
  // Scalars carried through.
  double minS = 1e9, maxS = -1e9;
  for (double s : mesh.pointScalars) {
    minS = std::min(minS, s);
    maxS = std::max(maxS, s);
  }
  EXPECT_EQ(minS, 1.0);
  EXPECT_EQ(maxS, 4.0);
}

TEST(TetMeshToTriangles, ClipOutputRenders) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(8);
  ClipSphereFilter filter;
  filter.setSphere(g.bounds().center(), 0.3);
  const auto result = filter.run(ctx, g, "x");
  const TriangleMesh mesh = tetMeshToTriangles(result.clipped.cutPieces);
  EXPECT_EQ(mesh.numTriangles(), result.clipped.cutPieces.numTets() * 4);
}

TEST(PolylinesToTriangles, SegmentsBecomeRibbons) {
  PolylineSet lines;
  lines.points = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}};
  lines.pointScalars = {0.0, 0.5, 1.0};
  lines.offsets = {0, 3};
  const TriangleMesh mesh = polylinesToTriangles(lines, 0.05);
  EXPECT_EQ(mesh.numTriangles(), 4);  // 2 segments x 2 triangles
  // Each ribbon quad: length x 0.1 wide.
  EXPECT_NEAR(mesh.totalArea(), 2.0 * 0.1, 1e-12);
  EXPECT_THROW(polylinesToTriangles(lines, 0.0), Error);
}

TEST(PolylinesToTriangles, ZeroLengthSegmentsSkipped) {
  PolylineSet lines;
  lines.points = {{0, 0, 0}, {0, 0, 0}, {1, 0, 0}};
  lines.pointScalars = {0, 0, 0};
  lines.offsets = {0, 3};
  const TriangleMesh mesh = polylinesToTriangles(lines, 0.01);
  EXPECT_EQ(mesh.numTriangles(), 2);  // only the real segment
}

TEST(PolylinesToTriangles, VerticalSegmentsGetAFallbackSide) {
  PolylineSet lines;
  lines.points = {{0, 0, 0}, {0, 0, 1}};  // parallel to the z fallback axis
  lines.pointScalars = {0, 1};
  lines.offsets = {0, 2};
  const TriangleMesh mesh = polylinesToTriangles(lines, 0.02);
  EXPECT_EQ(mesh.numTriangles(), 2);
  EXPECT_NEAR(mesh.totalArea(), 0.04, 1e-12);
}

}  // namespace
}  // namespace pviz::vis
