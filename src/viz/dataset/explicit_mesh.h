// Explicit (unstructured) output mesh types produced by the filters.
//
//  * TriangleMesh — contour, slice, external-face triangulation.
//  * TetMesh      — spherical clip and isovolume (cut hexahedra are
//                   tetrahedralized and clipped tet-by-tet).
//  * HexSubset    — threshold (whole cells kept or dropped).
//  * PolylineSet  — particle advection streamlines.
//
// All carry an optional per-point scalar used for coloring.  Arrays are
// util::Buffers: a kernel sizes its output once and its parallel fill
// writes every slot, so sizing writes nothing.
#pragma once

#include "util/buffer.h"
#include "util/error.h"
#include "viz/types.h"

namespace pviz::vis {

struct TriangleMesh {
  util::Buffer<Vec3> points;
  util::Buffer<Id> connectivity;      // 3 point ids per triangle
  util::Buffer<double> pointScalars;  // empty or one per point

  Id numTriangles() const { return static_cast<Id>(connectivity.size()) / 3; }
  Id numPoints() const { return static_cast<Id>(points.size()); }

  Bounds bounds() const {
    Bounds b;
    for (const auto& p : points) b.expand(p);
    return b;
  }

  /// Sum of triangle areas — used by watertightness/geometry tests.
  double totalArea() const {
    double area = 0.0;
    for (Id t = 0; t < numTriangles(); ++t) {
      const Vec3& a = points[static_cast<std::size_t>(connectivity[3 * t])];
      const Vec3& b = points[static_cast<std::size_t>(connectivity[3 * t + 1])];
      const Vec3& c = points[static_cast<std::size_t>(connectivity[3 * t + 2])];
      area += 0.5 * length(cross(b - a, c - a));
    }
    return area;
  }

  /// Append `other`, rebasing its connectivity.  Every array grows
  /// geometrically, so appending in a loop stays linear overall.
  void append(const TriangleMesh& other) {
    const Id base = numPoints();
    points.insert(points.end(), other.points.begin(), other.points.end());
    pointScalars.insert(pointScalars.end(), other.pointScalars.begin(),
                        other.pointScalars.end());
    const std::size_t at = connectivity.size();
    connectivity.resize(at + other.connectivity.size());
    for (std::size_t i = 0; i < other.connectivity.size(); ++i) {
      connectivity[at + i] = base + other.connectivity[i];
    }
  }
};

/// A tet soup: tet t is points 4t..4t+3, so no connectivity is stored.
struct TetMesh {
  util::Buffer<Vec3> points;          // 4 per tetrahedron
  util::Buffer<double> pointScalars;  // empty or one per point

  Id numTets() const { return numPoints() / 4; }
  Id numPoints() const { return static_cast<Id>(points.size()); }

  /// Signed volume of tet `t` (positive for positively oriented tets).
  double tetVolume(Id t) const {
    const Vec3* p = points.data() + 4 * t;
    return dot(cross(p[1] - p[0], p[2] - p[0]), p[3] - p[0]) / 6.0;
  }

  /// Total unsigned volume of the mesh.
  double totalVolume() const {
    double v = 0.0;
    for (Id t = 0; t < numTets(); ++t) v += std::abs(tetVolume(t));
    return v;
  }
};

/// Cells of a source grid kept by value-based selection (threshold).
struct HexSubset {
  util::Buffer<Id> cellIds;          // flat cell ids into the source grid
  util::Buffer<double> cellScalars;  // selected-field value per kept cell

  Id numCells() const { return static_cast<Id>(cellIds.size()); }
};

/// A bundle of polylines (streamlines): `offsets` has one entry per line
/// plus a final sentinel, indexing into `points`.
struct PolylineSet {
  util::Buffer<Vec3> points;
  util::Buffer<Id> offsets{0};
  util::Buffer<double> pointScalars;  // e.g. integration time / speed

  Id numLines() const { return static_cast<Id>(offsets.size()) - 1; }
  Id lineSize(Id line) const {
    return offsets[static_cast<std::size_t>(line) + 1] -
           offsets[static_cast<std::size_t>(line)];
  }
  double totalLength() const {
    double len = 0.0;
    for (Id l = 0; l < numLines(); ++l) {
      for (Id p = offsets[static_cast<std::size_t>(l)] + 1;
           p < offsets[static_cast<std::size_t>(l) + 1]; ++p) {
        len += length(points[static_cast<std::size_t>(p)] -
                      points[static_cast<std::size_t>(p - 1)]);
      }
    }
    return len;
  }
};

}  // namespace pviz::vis
