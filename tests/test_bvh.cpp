// BVH correctness against brute force.
#include <gtest/gtest.h>

#include "util/exec_context.h"
#include "util/rng.h"
#include "viz/rendering/bvh.h"

namespace pviz::vis {
namespace {

TriangleMesh randomSoup(int triangles, std::uint64_t seed) {
  util::Rng rng(seed);
  TriangleMesh mesh;
  for (int t = 0; t < triangles; ++t) {
    const Vec3 base{rng.uniform(), rng.uniform(), rng.uniform()};
    for (int k = 0; k < 3; ++k) {
      mesh.points.push_back(base + Vec3{rng.uniform(-0.1, 0.1),
                                        rng.uniform(-0.1, 0.1),
                                        rng.uniform(-0.1, 0.1)});
      mesh.connectivity.push_back(static_cast<Id>(3 * t + k));
    }
  }
  return mesh;
}

TEST(Bvh, EmptyMeshAlwaysMisses) {
  util::ExecutionContext ctx;
  TriangleMesh mesh;
  const Bvh bvh(ctx, mesh);
  const TriangleHit hit = bvh.intersect({{0, 0, 0}, {0, 0, 1}});
  EXPECT_FALSE(hit.hit());
  EXPECT_EQ(bvh.nodeCount(), 0);
}

TEST(Bvh, SingleTriangleHitAndMiss) {
  util::ExecutionContext ctx;
  TriangleMesh mesh;
  mesh.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  mesh.connectivity = {0, 1, 2};
  const Bvh bvh(ctx, mesh);
  const TriangleHit hit = bvh.intersect({{0.2, 0.2, 1.0}, {0, 0, -1}});
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.triangle, 0);
  EXPECT_NEAR(hit.t, 1.0, 1e-12);
  EXPECT_NEAR(hit.u, 0.2, 1e-12);
  EXPECT_NEAR(hit.v, 0.2, 1e-12);
  EXPECT_FALSE(bvh.intersect({{2, 2, 1}, {0, 0, -1}}).hit());
  // Triangle behind the origin must not hit.
  EXPECT_FALSE(bvh.intersect({{0.2, 0.2, -1.0}, {0, 0, -1}}).hit());
}

TEST(Bvh, ParallelRayMissesDegenerateDeterminant) {
  util::ExecutionContext ctx;
  TriangleMesh mesh;
  mesh.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  mesh.connectivity = {0, 1, 2};
  const Bvh bvh(ctx, mesh);
  // Ray in the triangle's plane.
  EXPECT_FALSE(bvh.intersect({{-1, 0.25, 0.0}, {1, 0, 0}}).hit());
}

TEST(Bvh, StatsAccumulate) {
  util::ExecutionContext ctx;
  const TriangleMesh mesh = randomSoup(500, 3);
  const Bvh bvh(ctx, mesh);
  TraversalStats stats;
  bvh.intersect({{0.5, 0.5, -2.0}, {0, 0, 1}}, &stats);
  EXPECT_GT(stats.nodesVisited, 0);
  EXPECT_GT(bvh.nodeCount(), 100);  // real tree, not one big leaf
}

TEST(Bvh, RootBoundsCoverAllTriangles) {
  util::ExecutionContext ctx;
  const TriangleMesh mesh = randomSoup(300, 5);
  const Bvh bvh(ctx, mesh);
  const Bounds root = bvh.rootBounds();
  for (const auto& p : mesh.points) {
    ASSERT_TRUE(root.contains(p));
  }
}

// The heart of the matter: identical results to brute force for many
// random rays over random scenes.
class BvhVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BvhVsBruteForce, SameNearestHit) {
  util::ExecutionContext ctx;
  const TriangleMesh mesh = randomSoup(400, GetParam());
  const Bvh bvh(ctx, mesh);
  util::Rng rng(GetParam() * 7919 + 1);
  int hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Vec3 origin{rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5),
                      rng.uniform(-0.5, 1.5)};
    const Vec3 target{rng.uniform(), rng.uniform(), rng.uniform()};
    Ray ray{origin, normalize(target - origin)};
    const TriangleHit fast = bvh.intersect(ray);
    const TriangleHit slow = bvh.intersectBruteForce(ray);
    ASSERT_EQ(fast.hit(), slow.hit());
    if (fast.hit()) {
      ++hits;
      ASSERT_EQ(fast.triangle, slow.triangle);
      ASSERT_NEAR(fast.t, slow.t, 1e-12);
    }
  }
  EXPECT_GT(hits, 50);  // the test actually exercised intersections
}

INSTANTIATE_TEST_SUITE_P(Scenes, BvhVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Leaf-size sweep: different tree shapes, same answers.
class BvhLeafSize : public ::testing::TestWithParam<int> {};

TEST_P(BvhLeafSize, LeafSizeDoesNotChangeResults) {
  util::ExecutionContext ctx;
  const TriangleMesh mesh = randomSoup(200, 42);
  const Bvh reference(ctx, mesh, 1);
  const Bvh variant(ctx, mesh, GetParam());
  util::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const Ray ray{{rng.uniform(), rng.uniform(), -1.0},
                  normalize(Vec3{rng.uniform(-0.2, 0.2),
                                 rng.uniform(-0.2, 0.2), 1.0})};
    const TriangleHit a = reference.intersect(ray);
    const TriangleHit b = variant.intersect(ray);
    ASSERT_EQ(a.hit(), b.hit());
    if (a.hit()) {
      ASSERT_NEAR(a.t, b.t, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BvhLeafSize,
                         ::testing::Values(2, 4, 8, 16, 64));

TEST(Bvh, RejectsBadLeafSize) {
  util::ExecutionContext ctx;
  TriangleMesh mesh;
  EXPECT_THROW(Bvh(ctx, mesh, 0), Error);
}

TEST(Bvh, HandlesCoincidentCentroids) {
  util::ExecutionContext ctx;
  // Many triangles with identical centroids must terminate (degenerate
  // split guard) and still intersect correctly.
  TriangleMesh mesh;
  for (int t = 0; t < 50; ++t) {
    mesh.points.push_back({0, 0, 0});
    mesh.points.push_back({1, 0, 0});
    mesh.points.push_back({0, 1, 0});
    mesh.connectivity.push_back(3 * t);
    mesh.connectivity.push_back(3 * t + 1);
    mesh.connectivity.push_back(3 * t + 2);
  }
  const Bvh bvh(ctx, mesh, 4);
  EXPECT_TRUE(bvh.intersect({{0.2, 0.2, 1.0}, {0, 0, -1}}).hit());
}

}  // namespace
}  // namespace pviz::vis
