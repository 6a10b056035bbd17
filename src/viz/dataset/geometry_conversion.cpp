#include "viz/dataset/geometry_conversion.h"

namespace pviz::vis {

namespace {
constexpr Id kCornerOffsets[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                     {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                     {1, 1, 1}, {0, 1, 1}};
// Outward-wound faces (VTK hex corner indices).
constexpr int kHexFaces[6][4] = {{0, 4, 7, 3}, {1, 2, 6, 5}, {0, 1, 5, 4},
                                 {3, 7, 6, 2}, {0, 3, 2, 1}, {4, 5, 6, 7}};

void pushQuad(TriangleMesh& mesh, const Vec3 corners[4],
              const double scalars[4]) {
  const Id base = mesh.numPoints();
  for (int v = 0; v < 4; ++v) {
    mesh.points.push_back(corners[v]);
    mesh.pointScalars.push_back(scalars[v]);
  }
  for (Id idx : {base, base + 1, base + 2, base, base + 2, base + 3}) {
    mesh.connectivity.push_back(idx);
  }
}
}  // namespace

TriangleMesh hexSubsetToTriangles(const UniformGrid& grid,
                                  const HexSubset& cells) {
  PVIZ_REQUIRE(cells.cellScalars.size() == cells.cellIds.size(),
               "hex subset needs one scalar per cell");
  TriangleMesh mesh;
  mesh.points.reserve(static_cast<std::size_t>(cells.numCells()) * 24);
  for (Id n = 0; n < cells.numCells(); ++n) {
    const Id3 c = grid.cellIjk(cells.cellIds[static_cast<std::size_t>(n)]);
    const double s = cells.cellScalars[static_cast<std::size_t>(n)];
    Vec3 corner[8];
    for (int k = 0; k < 8; ++k) {
      corner[k] = grid.pointPosition(Id3{c.i + kCornerOffsets[k][0],
                                         c.j + kCornerOffsets[k][1],
                                         c.k + kCornerOffsets[k][2]});
    }
    for (const auto& face : kHexFaces) {
      const Vec3 quad[4] = {corner[face[0]], corner[face[1]],
                            corner[face[2]], corner[face[3]]};
      const double scalars[4] = {s, s, s, s};
      pushQuad(mesh, quad, scalars);
    }
  }
  return mesh;
}

TriangleMesh tetMeshToTriangles(const TetMesh& tets) {
  static constexpr int kTetFaces[4][3] = {
      {0, 2, 1}, {0, 1, 3}, {1, 2, 3}, {0, 3, 2}};
  TriangleMesh mesh;
  mesh.points.reserve(static_cast<std::size_t>(tets.numTets()) * 12);
  for (Id t = 0; t < tets.numTets(); ++t) {
    for (const auto& face : kTetFaces) {
      const Id base = mesh.numPoints();
      for (int v = 0; v < 3; ++v) {
        const auto p = static_cast<std::size_t>(4 * t + face[v]);
        mesh.points.push_back(tets.points[p]);
        mesh.pointScalars.push_back(
            tets.pointScalars.empty() ? 0.0 : tets.pointScalars[p]);
      }
      mesh.connectivity.push_back(base);
      mesh.connectivity.push_back(base + 1);
      mesh.connectivity.push_back(base + 2);
    }
  }
  return mesh;
}

TriangleMesh polylinesToTriangles(const PolylineSet& lines,
                                  double halfWidth) {
  PVIZ_REQUIRE(halfWidth > 0.0, "ribbon half-width must be positive");
  TriangleMesh mesh;
  for (Id l = 0; l < lines.numLines(); ++l) {
    const Id first = lines.offsets[static_cast<std::size_t>(l)];
    const Id count = lines.lineSize(l);
    for (Id k = 0; k + 1 < count; ++k) {
      const Vec3& a = lines.points[static_cast<std::size_t>(first + k)];
      const Vec3& b = lines.points[static_cast<std::size_t>(first + k + 1)];
      const Vec3 dir = b - a;
      if (length(dir) < 1e-15) continue;
      Vec3 side = cross(dir, Vec3{0, 0, 1});
      if (length(side) < 1e-12) side = cross(dir, Vec3{0, 1, 0});
      side = normalize(side) * halfWidth;
      const double sa =
          lines.pointScalars.empty()
              ? 0.0
              : lines.pointScalars[static_cast<std::size_t>(first + k)];
      const double sb =
          lines.pointScalars.empty()
              ? 0.0
              : lines.pointScalars[static_cast<std::size_t>(first + k + 1)];
      const Vec3 quad[4] = {a - side, a + side, b + side, b - side};
      const double scalars[4] = {sa, sa, sb, sb};
      pushQuad(mesh, quad, scalars);
    }
  }
  return mesh;
}

}  // namespace pviz::vis
