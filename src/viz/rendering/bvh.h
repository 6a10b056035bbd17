// Bounding volume hierarchy over a triangle soup.
//
// The paper's ray tracer "uses a spatial acceleration structure to
// minimize the amount of intersection tests"; this is a binary BVH built
// by recursive median split on the largest centroid axis, traversed
// iteratively with an explicit stack.  Traversal reports the work it did
// (nodes visited, triangles tested) so the ray tracer can characterize
// the trace phase with real counts.
#pragma once

#include <cstdint>
#include <vector>

#include "viz/dataset/explicit_mesh.h"
#include "viz/rendering/camera.h"
#include "viz/types.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

struct TriangleHit {
  double t = 1e300;       ///< ray parameter of the nearest hit
  Id triangle = -1;       ///< index into the source mesh, -1 = miss
  double u = 0.0, v = 0.0;  ///< barycentric coordinates of the hit
  bool hit() const { return triangle >= 0; }
};

struct TraversalStats {
  std::int64_t nodesVisited = 0;
  std::int64_t trianglesTested = 0;
};

class Bvh {
 public:
  struct Node {
    Bounds box;
    std::int32_t left = -1;    ///< index of left child (-1 for leaves)
    std::int32_t right = -1;   ///< index of right child (-1 for leaves)
    std::int32_t first = -1;   ///< leaf: first entry in order_
    std::int32_t count = 0;    ///< leaf: triangle count (0 for inner nodes)
  };

  /// Build over `mesh` (which must outlive the BVH).  Construction runs
  /// the centroid/bounds pass and the top-level splits on the context's
  /// pool; a serial context takes the one-thread recursion, which
  /// produces a bit-identical node array (the determinism suite checks
  /// this).
  Bvh(util::ExecutionContext& ctx, const TriangleMesh& mesh,
      int maxLeafSize = 4);

  /// Nearest intersection along `ray`, or a miss.
  TriangleHit intersect(const Ray& ray, TraversalStats* stats = nullptr) const;

  /// Brute-force reference used by tests.
  TriangleHit intersectBruteForce(const Ray& ray) const;

  std::int64_t nodeCount() const { return static_cast<std::int64_t>(nodes_.size()); }
  const Bounds& rootBounds() const { return nodes_.empty() ? empty_ : nodes_[0].box; }

  /// Structure accessors for the determinism/equivalence suite.
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Id>& triangleOrder() const { return order_; }

 private:
  struct BuildData;  // cached per-triangle bounds/centroids (bvh.cpp)

  void build(util::ExecutionContext& ctx, int maxLeafSize);
  std::int32_t buildInto(std::vector<Node>& out, std::int64_t begin,
                         std::int64_t end, BuildData& bd);
  void buildParallel(util::ExecutionContext& ctx, BuildData& bd,
                     unsigned concurrency);
  bool intersectTriangle(const Ray& ray, Id tri, TriangleHit& best) const;

  const TriangleMesh& mesh_;
  std::vector<Node> nodes_;
  std::vector<Id> order_;  ///< triangle indices, leaf-contiguous
  Bounds empty_;
};

}  // namespace pviz::vis
