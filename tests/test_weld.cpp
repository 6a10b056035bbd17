// Point welding tests.
#include <gtest/gtest.h>

#include "util/exec_context.h"
#include "viz/dataset/weld.h"
#include "viz/filters/contour.h"

namespace pviz::vis {
namespace {

TriangleMesh twoTrianglesSharingAnEdge() {
  // Soup form: six vertices, of which two pairs coincide.
  TriangleMesh soup;
  soup.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                 {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  soup.pointScalars = {1, 2, 3, 2, 4, 3};
  soup.connectivity = {0, 1, 2, 3, 4, 5};
  return soup;
}

TEST(Weld, MergesCoincidentVertices) {
  const WeldResult result = weldPoints(twoTrianglesSharingAnEdge());
  EXPECT_EQ(result.inputPoints, 6);
  EXPECT_EQ(result.weldedPoints, 4);
  EXPECT_EQ(result.mesh.numTriangles(), 2);
  EXPECT_NEAR(result.compressionRatio(), 1.5, 1e-12);
  // Geometry unchanged.
  EXPECT_NEAR(result.mesh.totalArea(), 1.0, 1e-12);
}

TEST(Weld, ScalarsFollowFirstOccurrence) {
  const WeldResult result = weldPoints(twoTrianglesSharingAnEdge());
  ASSERT_EQ(result.mesh.pointScalars.size(), 4u);
  // Vertices (1,0,0) and (0,1,0) keep their first scalars (2 and 3).
  for (Id p = 0; p < result.mesh.numPoints(); ++p) {
    const Vec3& pos = result.mesh.points[static_cast<std::size_t>(p)];
    const double s = result.mesh.pointScalars[static_cast<std::size_t>(p)];
    if (pos == Vec3{1, 0, 0}) {
      EXPECT_EQ(s, 2.0);
    }
    if (pos == Vec3{0, 1, 0}) {
      EXPECT_EQ(s, 3.0);
    }
  }
}

TEST(Weld, ToleranceControlsMerging) {
  TriangleMesh soup;
  soup.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                 {0, 0, 1e-4}, {1, 0, 1e-4}, {0, 1, 1e-4}};
  soup.pointScalars = {0, 0, 0, 0, 0, 0};
  soup.connectivity = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(weldPoints(soup, 1e-6).weldedPoints, 6);  // kept apart
  EXPECT_EQ(weldPoints(soup, 1e-2).weldedPoints, 3);  // merged
  EXPECT_THROW(weldPoints(soup, 0.0), Error);
}

TEST(Weld, EmptyMeshIsFine) {
  const WeldResult result = weldPoints(TriangleMesh{});
  EXPECT_EQ(result.weldedPoints, 0);
  EXPECT_EQ(result.mesh.numTriangles(), 0);
}

TEST(Weld, ContourSoupCompressesAboutFourToSix) {
  util::ExecutionContext ctx;
  // Each marching-cubes vertex is shared by ~4-6 triangles, so welding
  // a contour soup should compress substantially.
  UniformGrid g = UniformGrid::cube(20);
  Field f = Field::zeros("d", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, length(g.pointPosition(p) - Vec3{0.5, 0.5, 0.5}));
  }
  g.addField(std::move(f));
  ContourFilter contour;
  contour.setIsovalues({0.3});
  const auto surface = contour.run(ctx, g, "d").surface;
  const WeldResult welded = weldPoints(surface, 1e-7);
  EXPECT_GT(welded.compressionRatio(), 3.0);
  EXPECT_LT(welded.compressionRatio(), 8.0);
  EXPECT_NEAR(welded.mesh.totalArea(), surface.totalArea(), 1e-9);
}

TEST(Weld, WeldedSphereContourIsClosed) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(16);
  Field f = Field::zeros("d", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, length(g.pointPosition(p) - Vec3{0.5, 0.5, 0.5}));
  }
  g.addField(std::move(f));
  ContourFilter contour;
  contour.setIsovalues({0.32});
  const auto surface = contour.run(ctx, g, "d").surface;
  const WeldResult welded = weldPoints(surface, 1e-7);
  EXPECT_EQ(countBoundaryEdges(welded.mesh), 0);
}

TEST(CountBoundaryEdges, OpenMeshReportsItsRim) {
  TriangleMesh mesh;
  mesh.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  mesh.connectivity = {0, 1, 2};
  EXPECT_EQ(countBoundaryEdges(mesh), 3);
}

}  // namespace
}  // namespace pviz::vis
