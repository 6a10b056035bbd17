// External-face extraction tests.
#include <gtest/gtest.h>

#include "util/exec_context.h"
#include "viz/rendering/external_faces.h"

namespace pviz::vis {
namespace {

UniformGrid gridWithEnergy(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("energy", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(ExternalFaces, CountMatchesBoundaryQuadFormula) {
  util::ExecutionContext ctx;
  for (Id n : {2, 3, 5, 8}) {
    const UniformGrid g = gridWithEnergy(n);
    const auto result = extractExternalFaces(ctx, g, "energy");
    EXPECT_EQ(result.facesFound, 6 * n * n) << "n=" << n;
    EXPECT_EQ(result.mesh.numTriangles(), 12 * n * n);
    EXPECT_EQ(result.cellsScanned, n * n * n);
  }
}

TEST(ExternalFaces, EightTimesCellsGivesFourTimesFaces) {
  util::ExecutionContext ctx;
  // The paper's observation: 8X cells -> 4X external faces.
  const auto small = extractExternalFaces(ctx, gridWithEnergy(8), "energy");
  const auto large = extractExternalFaces(ctx, gridWithEnergy(16), "energy");
  EXPECT_EQ(large.facesFound, 4 * small.facesFound);
}

TEST(ExternalFaces, TotalAreaEqualsCubeSurface) {
  util::ExecutionContext ctx;
  const UniformGrid g = gridWithEnergy(6);
  const auto result = extractExternalFaces(ctx, g, "energy");
  EXPECT_NEAR(result.mesh.totalArea(), 6.0, 1e-9);
}

TEST(ExternalFaces, AllVerticesOnTheBoundary) {
  util::ExecutionContext ctx;
  const UniformGrid g = gridWithEnergy(5);
  const auto result = extractExternalFaces(ctx, g, "energy");
  for (const auto& p : result.mesh.points) {
    const bool boundary = p.x < 1e-12 || p.x > 1 - 1e-12 || p.y < 1e-12 ||
                          p.y > 1 - 1e-12 || p.z < 1e-12 || p.z > 1 - 1e-12;
    ASSERT_TRUE(boundary);
  }
}

TEST(ExternalFaces, ScalarsCarriedFromField) {
  util::ExecutionContext ctx;
  const UniformGrid g = gridWithEnergy(4);
  const auto result = extractExternalFaces(ctx, g, "energy");
  ASSERT_EQ(result.mesh.pointScalars.size(), result.mesh.points.size());
  for (std::size_t i = 0; i < result.mesh.points.size(); ++i) {
    ASSERT_NEAR(result.mesh.pointScalars[i], result.mesh.points[i].x, 1e-12);
  }
}

TEST(ExternalFaces, NormalsPointOutward) {
  util::ExecutionContext ctx;
  const UniformGrid g = gridWithEnergy(3);
  const auto result = extractExternalFaces(ctx, g, "energy");
  const Vec3 center{0.5, 0.5, 0.5};
  for (Id t = 0; t < result.mesh.numTriangles(); ++t) {
    const Vec3& a = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t)])];
    const Vec3& b = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t + 1)])];
    const Vec3& c = result.mesh.points[static_cast<std::size_t>(
        result.mesh.connectivity[static_cast<std::size_t>(3 * t + 2)])];
    const Vec3 n = cross(b - a, c - a);
    const Vec3 outward = (a + b + c) / 3.0 - center;
    ASSERT_GT(dot(n, outward), 0.0) << "triangle " << t;
  }
}

TEST(ExternalFaces, RequiresPointField) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("c", Association::Cells, 1, g.numCells()));
  EXPECT_THROW(extractExternalFaces(ctx, g, "c"), Error);
}

}  // namespace
}  // namespace pviz::vis
