// Contour (marching cubes) geometric correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/filters/contour.h"
#include "viz/filters/mc_tables.h"

namespace pviz::vis {
namespace {

constexpr double kPi = 3.14159265358979323846;

UniformGrid sphereGrid(Id cells, Vec3 center = {0.5, 0.5, 0.5}) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("dist", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, length(g.pointPosition(p) - center));
  }
  g.addField(std::move(f));
  return g;
}

// Quantized undirected edge counts over the whole surface.
std::map<std::pair<std::array<long, 3>, std::array<long, 3>>, int> edgeCounts(
    const TriangleMesh& mesh) {
  auto key = [](const Vec3& p) {
    return std::array<long, 3>{std::lround(p.x * 1e7),
                               std::lround(p.y * 1e7),
                               std::lround(p.z * 1e7)};
  };
  std::map<std::pair<std::array<long, 3>, std::array<long, 3>>, int> counts;
  for (Id t = 0; t < mesh.numTriangles(); ++t) {
    std::array<std::array<long, 3>, 3> v;
    for (int k = 0; k < 3; ++k) {
      v[static_cast<std::size_t>(k)] = key(
          mesh.points[static_cast<std::size_t>(
              mesh.connectivity[static_cast<std::size_t>(3 * t + k)])]);
    }
    for (int k = 0; k < 3; ++k) {
      auto a = v[static_cast<std::size_t>(k)];
      auto b = v[static_cast<std::size_t>((k + 1) % 3)];
      if (a == b) continue;  // degenerate sliver edge
      if (b < a) std::swap(a, b);
      counts[{a, b}] += 1;
    }
  }
  return counts;
}

TEST(Contour, SphereSurfaceAreaMatchesAnalytic) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(40);
  ContourFilter filter;
  filter.setIsovalues({0.3});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_GT(result.surface.numTriangles(), 1000);
  const double area = result.surface.totalArea();
  const double expected = 4.0 * kPi * 0.3 * 0.3;
  EXPECT_NEAR(area, expected, expected * 0.02);
}

TEST(Contour, SphereIsWatertight) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(24);
  ContourFilter filter;
  filter.setIsovalues({0.31});
  const auto result = filter.run(ctx, g, "dist");
  int odd = 0;
  for (const auto& [edge, count] : edgeCounts(result.surface)) {
    if (count % 2 != 0) ++odd;
  }
  EXPECT_EQ(odd, 0) << "surface has open (odd-use) edges";
}

TEST(Contour, PlanarFieldGivesFlatSurfaceOfKnownArea) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(16);
  Field f = Field::zeros("z", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).z);
  }
  g.addField(std::move(f));
  ContourFilter filter;
  filter.setIsovalues({0.53});
  const auto result = filter.run(ctx, g, "z");
  EXPECT_NEAR(result.surface.totalArea(), 1.0, 1e-9);
  for (const auto& p : result.surface.points) {
    ASSERT_NEAR(p.z, 0.53, 1e-12);
  }
}

TEST(Contour, OutOfRangeIsovalueGivesNothing) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(8);
  ContourFilter filter;
  filter.setIsovalues({99.0});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_EQ(result.surface.numTriangles(), 0);
  EXPECT_EQ(result.surface.numPoints(), 0);
}

TEST(Contour, VertexScalarsEqualIsovalue) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(12);
  ContourFilter filter;
  filter.setIsovalues({0.25});
  const auto result = filter.run(ctx, g, "dist");
  for (double s : result.surface.pointScalars) {
    ASSERT_DOUBLE_EQ(s, 0.25);
  }
}

TEST(Contour, MultipleIsovaluesConcatenate) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(16);
  ContourFilter a;
  a.setIsovalues({0.2});
  ContourFilter b;
  b.setIsovalues({0.35});
  ContourFilter both;
  both.setIsovalues({0.2, 0.35});
  const Id na = a.run(ctx, g, "dist").surface.numTriangles();
  const Id nb = b.run(ctx, g, "dist").surface.numTriangles();
  const Id nBoth = both.run(ctx, g, "dist").surface.numTriangles();
  EXPECT_EQ(nBoth, na + nb);
}

TEST(Contour, NormalsPointDownGradient) {
  util::ExecutionContext ctx;
  // For a sphere distance field the gradient points outward; oriented
  // triangles must have normals opposing it (toward the low-value side).
  const UniformGrid g = sphereGrid(16);
  ContourFilter filter;
  filter.setIsovalues({0.3});
  const auto result = filter.run(ctx, g, "dist");
  Id misoriented = 0;
  for (Id t = 0; t < result.surface.numTriangles(); ++t) {
    const Vec3& a = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t)])];
    const Vec3& b = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t + 1)])];
    const Vec3& c = result.surface.points[static_cast<std::size_t>(
        result.surface.connectivity[static_cast<std::size_t>(3 * t + 2)])];
    const Vec3 n = cross(b - a, c - a);
    const Vec3 outward = (a + b + c) / 3.0 - Vec3{0.5, 0.5, 0.5};
    if (dot(n, outward) > 1e-15) ++misoriented;
  }
  EXPECT_EQ(misoriented, 0);
}

TEST(Contour, UniformIsovaluesExcludeExtremes) {
  Field f("f", Association::Points, 1, {0.0, 10.0});
  util::ExecutionContext ctx;
  const auto values = ContourFilter::uniformIsovalues(ctx, f, 4);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values.front(), 2.0);
  EXPECT_DOUBLE_EQ(values.back(), 8.0);
  EXPECT_THROW(ContourFilter::uniformIsovalues(ctx, f, 0), Error);
}

TEST(Contour, RequiresSetupAndScalarPointField) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  g.addField(Field::zeros("c", Association::Cells, 1, g.numCells()));
  g.addField(Field::zeros("s", Association::Points, 1, g.numPoints()));
  ContourFilter filter;
  EXPECT_THROW(filter.run(ctx, g, "s"), Error);  // no isovalues set
  filter.setIsovalues({0.5});
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);  // vector field
  EXPECT_THROW(filter.run(ctx, g, "c"), Error);  // cell field
}

TEST(Contour, ProfileReflectsWork) {
  util::ExecutionContext ctx;
  const UniformGrid g = sphereGrid(12);
  ContourFilter filter;
  filter.setIsovalues({0.3, 0.4});
  const auto result = filter.run(ctx, g, "dist");
  EXPECT_EQ(result.profile.kernel, "contour");
  EXPECT_EQ(result.profile.elements, g.numCells());
  ASSERT_EQ(result.profile.phases.size(), 3u);
  EXPECT_GT(result.profile.totalInstructions(), 0.0);
  EXPECT_GT(result.profile.totalBytesStreamed(), 0.0);
}

// One hex cell with corner c at +-(0.15 + 0.1 c): bit c of `pattern`
// puts the corner above the isovalue 0, so the MC case equals `pattern`
// and no corner ever sits on the isovalue.
UniformGrid singleCellGrid(int pattern, double corner[8]) {
  UniformGrid g = UniformGrid::cube(1);
  Id pts[8];
  g.cellPointIds(Id3{0, 0, 0}, pts);
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  for (int c = 0; c < 8; ++c) {
    const double magnitude = 0.15 + 0.1 * c;
    corner[c] = ((pattern >> c) & 1) != 0 ? magnitude : -magnitude;
    f.setScalar(pts[c], corner[c]);
  }
  g.addField(std::move(f));
  return g;
}

TEST(ContourCell, EveryCornerSignPatternCutsItsOwnEdges) {
  const McTables& tables = McTables::instance();
  std::vector<TriangleMesh> reference;
  for (int pattern = 0; pattern < 256; ++pattern) {
    SCOPED_TRACE("pattern=" + std::to_string(pattern));
    double corner[8];
    const UniformGrid g = singleCellGrid(pattern, corner);
    Id pts[8];
    g.cellPointIds(Id3{0, 0, 0}, pts);
    util::ThreadPool pool(1);
    util::ExecutionContext ctx(pool);
    ctx.setBackend(exec::serialBackend());
    ContourFilter filter;
    filter.setIsovalues({0.0});
    const TriangleMesh mesh = filter.run(ctx, g, "v").surface;
    EXPECT_EQ(mesh.numTriangles(), tables.triangleCount[pattern]);

    // Each vertex sits on exactly one cube edge, strictly inside it, and
    // that edge's corners straddle the isovalue.
    auto within = [](double x, double lo, double hi) {
      if (lo == hi) return x == lo;
      return x > std::min(lo, hi) && x < std::max(lo, hi);
    };
    for (std::size_t v = 0; v < mesh.points.size(); ++v) {
      EXPECT_EQ(mesh.pointScalars[v], 0.0);
      const Vec3& p = mesh.points[v];
      int hits = 0;
      for (int e = 0; e < 12; ++e) {
        const int a = McTables::kEdgeCorners[e][0];
        const int b = McTables::kEdgeCorners[e][1];
        const Vec3 pa = g.pointPosition(pts[a]);
        const Vec3 pb = g.pointPosition(pts[b]);
        if (!within(p.x, pa.x, pb.x) || !within(p.y, pa.y, pb.y) ||
            !within(p.z, pa.z, pb.z)) {
          continue;
        }
        ++hits;
        EXPECT_NE(corner[a] >= 0.0, corner[b] >= 0.0) << "edge " << e;
      }
      EXPECT_EQ(hits, 1) << "vertex " << v;
    }
    reference.push_back(mesh);
  }

  // Both backends x pool sizes reproduce the serial meshes bit for bit.
  for (const exec::Backend* backend :
       {&exec::serialBackend(), &exec::threadedBackend()}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(backend->token()) + " backend, pool " +
                   std::to_string(workers));
      util::ThreadPool pool(workers);
      util::ExecutionContext ctx(pool);
      ctx.setBackend(*backend);
      for (int pattern = 0; pattern < 256; ++pattern) {
        double corner[8];
        const UniformGrid g = singleCellGrid(pattern, corner);
        ContourFilter filter;
        filter.setIsovalues({0.0});
        const TriangleMesh mesh = filter.run(ctx, g, "v").surface;
        const TriangleMesh& ref =
            reference[static_cast<std::size_t>(pattern)];
        ASSERT_EQ(mesh.points.size(), ref.points.size()) << pattern;
        for (std::size_t i = 0; i < mesh.points.size(); ++i) {
          EXPECT_EQ(mesh.points[i].x, ref.points[i].x) << pattern;
          EXPECT_EQ(mesh.points[i].y, ref.points[i].y) << pattern;
          EXPECT_EQ(mesh.points[i].z, ref.points[i].z) << pattern;
        }
        EXPECT_EQ(mesh.pointScalars, ref.pointScalars) << pattern;
        EXPECT_EQ(mesh.connectivity, ref.connectivity) << pattern;
      }
    }
  }
}

// Property sweep: area of a sphere contour tracks r^2 across isovalues,
// and every surface is watertight.
class ContourIsovalueSweep : public ::testing::TestWithParam<double> {};

TEST_P(ContourIsovalueSweep, AreaTracksRadiusAndSurfaceCloses) {
  util::ExecutionContext ctx;
  const double r = GetParam();
  const UniformGrid g = sphereGrid(32);
  ContourFilter filter;
  filter.setIsovalues({r});
  const auto result = filter.run(ctx, g, "dist");
  const double expected = 4.0 * kPi * r * r;
  EXPECT_NEAR(result.surface.totalArea(), expected, expected * 0.03);
  int odd = 0;
  for (const auto& [edge, count] : edgeCounts(result.surface)) {
    if (count % 2 != 0) ++odd;
  }
  EXPECT_EQ(odd, 0);
}

INSTANTIATE_TEST_SUITE_P(Radii, ContourIsovalueSweep,
                         ::testing::Values(0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                                           0.45));

}  // namespace
}  // namespace pviz::vis
