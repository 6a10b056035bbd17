// Three-dimensional uniform structured grid (the CloverLeaf mesh type).
//
// Points are indexed i-fastest; cells are hexahedra between adjacent
// points.  Cell corner ordering follows the VTK hexahedron convention:
//
//        7--------6           k
//       /|       /|           |  j
//      4--------5 |           | /
//      | 3------|-2           |/___ i
//      |/       |/
//      0--------1
#pragma once

#include <array>
#include <map>
#include <string>

#include "util/error.h"
#include "viz/dataset/field.h"
#include "viz/types.h"

namespace pviz::vis {

class UniformGrid {
 public:
  UniformGrid() = default;

  /// `pointDims` counts points per axis (cells per axis + 1).
  /// `indexOffset` places this grid as a window of a larger lattice:
  /// local point (i,j,k) sits at lattice index (i,j,k) + indexOffset of
  /// the SAME origin/spacing, so a block of a decomposed domain
  /// reproduces the global grid's point positions bit-for-bit (the
  /// integer sum happens before the double conversion — exact).  The
  /// default {0,0,0} is the ordinary standalone grid.
  UniformGrid(Id3 pointDims, Vec3 origin, Vec3 spacing,
              Id3 indexOffset = {0, 0, 0})
      : pointDims_(pointDims),
        origin_(origin),
        spacing_(spacing),
        indexOffset_(indexOffset) {
    PVIZ_REQUIRE(pointDims.i >= 2 && pointDims.j >= 2 && pointDims.k >= 2,
                 "uniform grid needs at least 2 points per axis");
    PVIZ_REQUIRE(spacing.x > 0 && spacing.y > 0 && spacing.z > 0,
                 "uniform grid spacing must be positive");
    PVIZ_REQUIRE(indexOffset.i >= 0 && indexOffset.j >= 0 &&
                     indexOffset.k >= 0,
                 "uniform grid index offset must be non-negative");
  }

  /// Convenience: a cube of `cellsPerAxis`^3 cells on [0,1]^3.
  static UniformGrid cube(Id cellsPerAxis) {
    PVIZ_REQUIRE(cellsPerAxis >= 1, "need at least one cell per axis");
    const double h = 1.0 / static_cast<double>(cellsPerAxis);
    return UniformGrid({cellsPerAxis + 1, cellsPerAxis + 1, cellsPerAxis + 1},
                       {0, 0, 0}, {h, h, h});
  }

  Id3 pointDims() const { return pointDims_; }
  Id3 cellDims() const {
    return {pointDims_.i - 1, pointDims_.j - 1, pointDims_.k - 1};
  }
  Id numPoints() const { return pointDims_.product(); }
  Id numCells() const { return cellDims().product(); }
  Vec3 origin() const { return origin_; }
  Vec3 spacing() const { return spacing_; }
  Id3 indexOffset() const { return indexOffset_; }

  Bounds bounds() const {
    Bounds b;
    b.expand(pointPosition({0, 0, 0}));
    b.expand(pointPosition({pointDims_.i - 1, pointDims_.j - 1, pointDims_.k - 1}));
    return b;
  }

  // --- index arithmetic -------------------------------------------------
  Id pointId(Id3 p) const {
    return p.i + pointDims_.i * (p.j + pointDims_.j * p.k);
  }
  Id3 pointIjk(Id flat) const {
    const Id plane = pointDims_.i * pointDims_.j;
    return {flat % pointDims_.i, (flat / pointDims_.i) % pointDims_.j,
            flat / plane};
  }
  Id cellId(Id3 c) const {
    const Id3 cd = cellDims();
    return c.i + cd.i * (c.j + cd.j * c.k);
  }
  Id3 cellIjk(Id flat) const {
    const Id3 cd = cellDims();
    const Id plane = cd.i * cd.j;
    return {flat % cd.i, (flat / cd.i) % cd.j, flat / plane};
  }

  Vec3 pointPosition(Id3 p) const {
    return {origin_.x + spacing_.x * static_cast<double>(indexOffset_.i + p.i),
            origin_.y + spacing_.y * static_cast<double>(indexOffset_.j + p.j),
            origin_.z + spacing_.z * static_cast<double>(indexOffset_.k + p.k)};
  }
  Vec3 pointPosition(Id flat) const { return pointPosition(pointIjk(flat)); }
  Vec3 cellCenter(Id3 c) const {
    return pointPosition(c) + spacing_ * 0.5;
  }

  // --- row iteration ----------------------------------------------------
  // Cells sharing a (j, k) pair form an i-contiguous "row": their flat
  // ids are [row * cellDims().i, (row + 1) * cellDims().i).  Hot kernel
  // loops sweep rows and step cell/point indices incrementally instead
  // of div/mod-decoding ijk for every cell.

  /// Number of cell rows (cellDims().j * cellDims().k).
  Id numCellRows() const {
    const Id3 cd = cellDims();
    return cd.j * cd.k;
  }
  /// The (0, j, k) triple of row `row`; rows are ordered j-fastest to
  /// match flat cell ids.
  Id3 cellRowIjk(Id row) const {
    const Id3 cd = cellDims();
    return {0, row % cd.j, row / cd.j};
  }
  /// Corner-0 point id of the first cell in `row`; consecutive cells in
  /// the row advance it by exactly 1.
  Id cellRowFirstPointId(Id row) const { return pointId(cellRowIjk(row)); }
  /// Corner point-id offsets relative to corner 0, VTK hexahedron order.
  /// Adding these to a cell's corner-0 point id enumerates its corners
  /// without re-deriving the j/k strides per cell.
  std::array<Id, 8> cellCornerOffsets() const {
    const Id dj = pointDims_.i;
    const Id dk = pointDims_.i * pointDims_.j;
    return {0, 1, 1 + dj, dj, dk, 1 + dk, 1 + dj + dk, dj + dk};
  }

  /// The eight corner point ids of cell `c`, VTK hexahedron order.
  void cellPointIds(Id3 c, Id out[8]) const {
    const Id base = pointId({c.i, c.j, c.k});
    const Id di = 1;
    const Id dj = pointDims_.i;
    const Id dk = pointDims_.i * pointDims_.j;
    out[0] = base;
    out[1] = base + di;
    out[2] = base + di + dj;
    out[3] = base + dj;
    out[4] = base + dk;
    out[5] = base + di + dk;
    out[6] = base + di + dj + dk;
    out[7] = base + dj + dk;
  }

  /// Locate the cell containing world position `p`; false if outside.
  /// On an offset grid the window's lower corner is lattice index
  /// `indexOffset`, so the global fractional coordinate is shifted into
  /// local cell space first (not bit-exact against the global grid near
  /// block seams — deterministic sampling across blocks goes through
  /// MultiBlockGrid, which locates on the global skeleton instead).
  bool locateCell(const Vec3& p, Id3& cellOut, Vec3& paramOut) const {
    const Id3 cd = cellDims();
    const Vec3 rel = p - origin_;
    const double fi = rel.x / spacing_.x - static_cast<double>(indexOffset_.i);
    const double fj = rel.y / spacing_.y - static_cast<double>(indexOffset_.j);
    const double fk = rel.z / spacing_.z - static_cast<double>(indexOffset_.k);
    if (fi < 0 || fj < 0 || fk < 0) return false;
    Id ci = static_cast<Id>(fi);
    Id cj = static_cast<Id>(fj);
    Id ck = static_cast<Id>(fk);
    // Points exactly on the upper boundary belong to the last cell.
    if (ci >= cd.i) { if (fi <= static_cast<double>(cd.i)) ci = cd.i - 1; else return false; }
    if (cj >= cd.j) { if (fj <= static_cast<double>(cd.j)) cj = cd.j - 1; else return false; }
    if (ck >= cd.k) { if (fk <= static_cast<double>(cd.k)) ck = cd.k - 1; else return false; }
    cellOut = {ci, cj, ck};
    paramOut = {fi - static_cast<double>(ci), fj - static_cast<double>(cj),
                fk - static_cast<double>(ck)};
    return true;
  }

  // The samplers below are defined here, not out of line, because the
  // volume renderer calls sampleScalar once per ray sample: inlined, the
  // locate + trilinear chain costs no call and shares the kernel's
  // registers.  The build turns FP contraction off (top-level
  // CMakeLists.txt), so inlining cannot fuse a multiply-add and the
  // results are bit-identical either way.

  /// Trilinear interpolation of a point scalar field at world position `p`.
  /// Returns false when `p` lies outside the grid.
  bool sampleScalar(const Field& f, const Vec3& p, double& out) const {
    Id3 cell;
    Vec3 t;
    if (!locateCell(p, cell, t)) return false;
    out = interpolateScalar(f, cell, t);
    return true;
  }

  /// Trilinear interpolation of a point vector field at world position `p`.
  bool sampleVector(const Field& f, const Vec3& p, Vec3& out) const {
    Id3 cell;
    Vec3 t;
    if (!locateCell(p, cell, t)) return false;
    out = interpolateVector(f, cell, t);
    return true;
  }

  /// Trilinear interpolation of point field `f` inside local cell `cell`
  /// at parametric coordinates `t` in [0,1]^3.  Public so the
  /// multi-block domain can locate on the global skeleton grid and
  /// evaluate through the owner block's field with the exact weight and
  /// accumulation order of the single-grid sample path.
  double interpolateScalar(const Field& f, Id3 cell, const Vec3& t) const {
    PVIZ_REQUIRE(f.association() == Association::Points,
                 "interpolateScalar requires a point field");
    return trilinear(cell, t, [&](Id id) { return f.value(id); });
  }
  Vec3 interpolateVector(const Field& f, Id3 cell, const Vec3& t) const {
    PVIZ_REQUIRE(f.association() == Association::Points,
                 "interpolateVector requires a point field");
    PVIZ_REQUIRE(f.components() == 3,
                 "interpolateVector requires 3 components");
    return trilinear(cell, t, [&](Id id) { return f.vec3(id); });
  }

  // --- fields -----------------------------------------------------------
  /// Attach (or replace) a field; its count must match the association.
  void addField(Field field);
  bool hasField(const std::string& name) const {
    return fields_.count(name) != 0;
  }
  const Field& field(const std::string& name) const;
  Field& field(const std::string& name);
  const std::map<std::string, Field>& fields() const { return fields_; }

 private:
  // Shared trilinear weight evaluation over the 8 corners of one cell.
  template <typename Fetch>
  auto trilinear(Id3 cell, const Vec3& t, Fetch&& fetch) const
      -> decltype(fetch(Id{0})) {
    Id ids[8];
    cellPointIds(cell, ids);
    const double ti = t.x, tj = t.y, tk = t.z;
    const double w[8] = {
        (1 - ti) * (1 - tj) * (1 - tk), ti * (1 - tj) * (1 - tk),
        ti * tj * (1 - tk),             (1 - ti) * tj * (1 - tk),
        (1 - ti) * (1 - tj) * tk,       ti * (1 - tj) * tk,
        ti * tj * tk,                   (1 - ti) * tj * tk};
    auto acc = fetch(ids[0]) * w[0];
    for (int c = 1; c < 8; ++c) acc += fetch(ids[c]) * w[c];
    return acc;
  }

  Id3 pointDims_{2, 2, 2};
  Vec3 origin_{0, 0, 0};
  Vec3 spacing_{1, 1, 1};
  Id3 indexOffset_{0, 0, 0};
  std::map<std::string, Field> fields_;
};

}  // namespace pviz::vis
