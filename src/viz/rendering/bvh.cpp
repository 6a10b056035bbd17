#include "viz/rendering/bvh.h"

#include <algorithm>

#include "util/error.h"
#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

Bounds triangleBounds(const TriangleMesh& mesh, Id tri) {
  Bounds b;
  for (int k = 0; k < 3; ++k) {
    b.expand(mesh.points[static_cast<std::size_t>(
        mesh.connectivity[static_cast<std::size_t>(3 * tri + k)])]);
  }
  return b;
}

// Below this many triangles a parallel build costs more than it saves.
constexpr std::int64_t kMinParallelTris = 4096;
// Stop splitting top-level tasks once a range is this small.
constexpr std::int64_t kMinTaskTris = 2048;

}  // namespace

/// Per-triangle bounds and build items computed once up front, so the
/// recursive build never re-gathers the three mesh points per triangle
/// per tree level.  Items carry the centroid next to the triangle index,
/// so the nth_element partitions compare and move 32-byte records
/// directly instead of chasing an index indirection per comparison; the
/// permutation depends only on comparator outcomes, so the resulting
/// triangle order is identical to partitioning the index array.
struct Bvh::BuildData {
  struct Item {
    Vec3 centroid;
    Id tri;
  };
  std::vector<Bounds> triBounds;
  std::vector<Item> items;
  int maxLeafSize = 4;
};

Bvh::Bvh(util::ExecutionContext& ctx, const TriangleMesh& mesh,
         int maxLeafSize)
    : mesh_(mesh) {
  build(ctx, maxLeafSize);
}

void Bvh::build(util::ExecutionContext& ctx, int maxLeafSize) {
  PVIZ_REQUIRE(maxLeafSize >= 1, "BVH leaf size must be >= 1");
  const Id n = mesh_.numTriangles();
  order_.resize(static_cast<std::size_t>(n));
  BuildData bd;
  bd.maxLeafSize = maxLeafSize;
  bd.triBounds.resize(static_cast<std::size_t>(n));
  bd.items.resize(static_cast<std::size_t>(n));
  util::parallelFor(ctx, 0, n, [&](Id t) {
    const Bounds b = triangleBounds(mesh_, t);
    bd.triBounds[static_cast<std::size_t>(t)] = b;
    bd.items[static_cast<std::size_t>(t)] = {b.center(), t};
  });
  if (n == 0) return;
  nodes_.reserve(static_cast<std::size_t>(2 * n));

  // A serial context (concurrency 1) takes the one-thread recursion.
  const unsigned conc = ctx.concurrency();
  if (conc > 1 && n >= kMinParallelTris) {
    buildParallel(ctx, bd, conc);
  } else {
    buildInto(nodes_, 0, n, bd);
  }
  util::parallelFor(ctx, 0, n, [&](Id t) {
    order_[static_cast<std::size_t>(t)] =
        bd.items[static_cast<std::size_t>(t)].tri;
  });
}

std::int32_t Bvh::buildInto(std::vector<Node>& out, std::int64_t begin,
                            std::int64_t end, BuildData& bd) {
  const auto nodeIndex = static_cast<std::int32_t>(out.size());
  out.emplace_back();

  // Only the centroid bounds are swept here; the node box is the union
  // of the child boxes, filled in bottom-up after the recursion (min/max
  // is exact, so this matches a direct sweep bit-for-bit at half the
  // per-level cost).
  Bounds centroidBox;
  for (std::int64_t i = begin; i < end; ++i) {
    centroidBox.expand(bd.items[static_cast<std::size_t>(i)].centroid);
  }

  const std::int64_t count = end - begin;
  const Vec3 extent = centroidBox.extent();
  const bool degenerate =
      extent.x <= 0.0 && extent.y <= 0.0 && extent.z <= 0.0;
  if (count <= bd.maxLeafSize || degenerate) {
    Bounds box;
    for (std::int64_t i = begin; i < end; ++i) {
      box.expand(bd.triBounds[static_cast<std::size_t>(
          bd.items[static_cast<std::size_t>(i)].tri)]);
    }
    out[static_cast<std::size_t>(nodeIndex)].box = box;
    out[static_cast<std::size_t>(nodeIndex)].first =
        static_cast<std::int32_t>(begin);
    out[static_cast<std::size_t>(nodeIndex)].count =
        static_cast<std::int32_t>(count);
    return nodeIndex;
  }

  int axis = 0;
  if (extent.y > extent[axis]) axis = 1;
  if (extent.z > extent[axis]) axis = 2;

  const std::int64_t mid = begin + count / 2;
  std::nth_element(bd.items.begin() + begin, bd.items.begin() + mid,
                   bd.items.begin() + end,
                   [axis](const BuildData::Item& a, const BuildData::Item& b) {
                     return a.centroid[axis] < b.centroid[axis];
                   });

  const std::int32_t left = buildInto(out, begin, mid, bd);
  const std::int32_t right = buildInto(out, mid, end, bd);
  Bounds box = out[static_cast<std::size_t>(left)].box;
  box.expand(out[static_cast<std::size_t>(right)].box);
  out[static_cast<std::size_t>(nodeIndex)].box = box;
  out[static_cast<std::size_t>(nodeIndex)].left = left;
  out[static_cast<std::size_t>(nodeIndex)].right = right;
  return nodeIndex;
}

void Bvh::buildParallel(util::ExecutionContext& ctx, BuildData& bd,
                        unsigned concurrency) {
  // Phase 1 (serial): split the top of the tree until there are enough
  // independent subtree tasks to feed the pool.  The skeleton performs
  // exactly the same leaf tests, axis picks, and nth_element partitions
  // the serial recursion would, so the final tree is identical.
  struct SkNode {
    Bounds box;
    int left = -1, right = -1;   // skeleton children
    int task = -1;               // subtree task index, -1 for skeleton nodes
    std::int32_t first = -1, count = 0;  // leaf payload
    bool leaf = false;
  };
  struct Subtree {
    std::int64_t begin = 0, end = 0;
    std::vector<Node> nodes;
  };
  std::vector<SkNode> skeleton;
  std::vector<Subtree> tasks;

  int maxDepth = 0;
  while ((std::int64_t{1} << maxDepth) < 4 * static_cast<std::int64_t>(concurrency)) {
    ++maxDepth;
  }

  auto split = [&](auto&& self, std::int64_t begin, std::int64_t end,
                   int depth) -> int {
    const int idx = static_cast<int>(skeleton.size());
    skeleton.emplace_back();

    // As in buildInto: sweep centroid bounds only; inner-node boxes are
    // unioned from the children during the emit phase.
    Bounds centroidBox;
    for (std::int64_t i = begin; i < end; ++i) {
      centroidBox.expand(bd.items[static_cast<std::size_t>(i)].centroid);
    }

    const std::int64_t count = end - begin;
    const Vec3 extent = centroidBox.extent();
    const bool degenerate =
        extent.x <= 0.0 && extent.y <= 0.0 && extent.z <= 0.0;
    if (count <= bd.maxLeafSize || degenerate) {
      Bounds box;
      for (std::int64_t i = begin; i < end; ++i) {
        box.expand(bd.triBounds[static_cast<std::size_t>(
            bd.items[static_cast<std::size_t>(i)].tri)]);
      }
      skeleton[static_cast<std::size_t>(idx)].box = box;
      skeleton[static_cast<std::size_t>(idx)].leaf = true;
      skeleton[static_cast<std::size_t>(idx)].first =
          static_cast<std::int32_t>(begin);
      skeleton[static_cast<std::size_t>(idx)].count =
          static_cast<std::int32_t>(count);
      return idx;
    }
    if (depth >= maxDepth || count <= kMinTaskTris) {
      // Hand the whole range to a subtree task; its root node recomputes
      // the same box during the parallel phase.
      tasks.push_back({begin, end, {}});
      skeleton[static_cast<std::size_t>(idx)].task =
          static_cast<int>(tasks.size()) - 1;
      return idx;
    }

    int axis = 0;
    if (extent.y > extent[axis]) axis = 1;
    if (extent.z > extent[axis]) axis = 2;
    const std::int64_t mid = begin + count / 2;
    std::nth_element(bd.items.begin() + begin, bd.items.begin() + mid,
                     bd.items.begin() + end,
                     [axis](const BuildData::Item& a, const BuildData::Item& b) {
                       return a.centroid[axis] < b.centroid[axis];
                     });
    const int left = self(self, begin, mid, depth + 1);
    const int right = self(self, mid, end, depth + 1);
    skeleton[static_cast<std::size_t>(idx)].left = left;
    skeleton[static_cast<std::size_t>(idx)].right = right;
    return idx;
  };
  const int root = split(split, 0, static_cast<std::int64_t>(order_.size()), 0);

  // Phase 2 (parallel): build each subtree into its own node array.
  // Tasks own disjoint item ranges, so the in-place nth_element
  // partitions never overlap.
  util::parallelFor(
      ctx, 0, static_cast<std::int64_t>(tasks.size()),
      [&](std::int64_t t) {
        Subtree& task = tasks[static_cast<std::size_t>(t)];
        task.nodes.reserve(static_cast<std::size_t>(2 * (task.end - task.begin)));
        buildInto(task.nodes, task.begin, task.end, bd);
      },
      /*grain=*/1);

  // Phase 3 (serial): emit depth-first — node, left subtree, right
  // subtree — splicing task blocks with child offsets rebased.  This is
  // exactly the layout the serial recursion produces.
  auto emit = [&](auto&& self, int sk) -> std::int32_t {
    const SkNode& sn = skeleton[static_cast<std::size_t>(sk)];
    if (sn.task >= 0) {
      const auto offset = static_cast<std::int32_t>(nodes_.size());
      for (Node node : tasks[static_cast<std::size_t>(sn.task)].nodes) {
        if (node.count == 0) {
          node.left += offset;
          node.right += offset;
        }
        nodes_.push_back(node);
      }
      return offset;
    }
    const auto idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    if (sn.leaf) {
      nodes_[static_cast<std::size_t>(idx)].box = sn.box;
      nodes_[static_cast<std::size_t>(idx)].first = sn.first;
      nodes_[static_cast<std::size_t>(idx)].count = sn.count;
      return idx;
    }
    const std::int32_t left = self(self, sn.left);
    const std::int32_t right = self(self, sn.right);
    Bounds box = nodes_[static_cast<std::size_t>(left)].box;
    box.expand(nodes_[static_cast<std::size_t>(right)].box);
    nodes_[static_cast<std::size_t>(idx)].box = box;
    nodes_[static_cast<std::size_t>(idx)].left = left;
    nodes_[static_cast<std::size_t>(idx)].right = right;
    return idx;
  };
  emit(emit, root);
}

bool Bvh::intersectTriangle(const Ray& ray, Id tri, TriangleHit& best) const {
  // Möller–Trumbore.
  const Vec3& a = mesh_.points[static_cast<std::size_t>(
      mesh_.connectivity[static_cast<std::size_t>(3 * tri)])];
  const Vec3& b = mesh_.points[static_cast<std::size_t>(
      mesh_.connectivity[static_cast<std::size_t>(3 * tri + 1)])];
  const Vec3& c = mesh_.points[static_cast<std::size_t>(
      mesh_.connectivity[static_cast<std::size_t>(3 * tri + 2)])];
  const Vec3 e1 = b - a;
  const Vec3 e2 = c - a;
  const Vec3 p = cross(ray.direction, e2);
  const double det = dot(e1, p);
  if (std::abs(det) < 1e-14) return false;
  const double invDet = 1.0 / det;
  const Vec3 s = ray.origin - a;
  const double u = dot(s, p) * invDet;
  if (u < 0.0 || u > 1.0) return false;
  const Vec3 q = cross(s, e1);
  const double v = dot(ray.direction, q) * invDet;
  if (v < 0.0 || u + v > 1.0) return false;
  const double t = dot(e2, q) * invDet;
  if (t <= 1e-9 || t >= best.t) return false;
  best.t = t;
  best.triangle = tri;
  best.u = u;
  best.v = v;
  return true;
}

TriangleHit Bvh::intersect(const Ray& ray, TraversalStats* stats) const {
  TriangleHit best;
  if (nodes_.empty()) return best;

  std::int32_t stack[64];
  int top = 0;
  stack[top++] = 0;
  std::int64_t nodesVisited = 0;
  std::int64_t triTests = 0;

  while (top > 0) {
    const Node& node = nodes_[static_cast<std::size_t>(stack[--top])];
    ++nodesVisited;
    double tNear, tFar;
    if (!intersectBox(ray, node.box, tNear, tFar) || tNear >= best.t) {
      continue;
    }
    if (node.count > 0) {
      for (std::int32_t i = 0; i < node.count; ++i) {
        ++triTests;
        intersectTriangle(
            ray, order_[static_cast<std::size_t>(node.first + i)], best);
      }
    } else {
      PVIZ_ASSERT(top + 2 <= 64);
      stack[top++] = node.left;
      stack[top++] = node.right;
    }
  }
  if (stats != nullptr) {
    stats->nodesVisited += nodesVisited;
    stats->trianglesTested += triTests;
  }
  return best;
}

TriangleHit Bvh::intersectBruteForce(const Ray& ray) const {
  TriangleHit best;
  for (Id t = 0; t < mesh_.numTriangles(); ++t) {
    intersectTriangle(ray, t, best);
  }
  return best;
}

}  // namespace pviz::vis
