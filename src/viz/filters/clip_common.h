// Shared cell-clipping machinery for spherical clip and isovolume.
//
// The paper's description: cells entirely on the kept side pass to the
// output unchanged; cells entirely on the discarded side are dropped;
// cells straddling the surface are subdivided, keeping the part on the
// kept side.  We implement the subdivision by decomposing each straddling
// hexahedron into six tetrahedra around its main diagonal (a
// face-consistent decomposition on a uniform grid, so neighbor cells
// agree on face diagonals) and clipping each tetrahedron against the
// linear interpolant of the clip scalar.  The kept region of a clipped
// tetrahedron is a tet or a prism; prisms are split into three tets.
//
// Output is a tet soup built count -> scan -> fill: a count pass sizes
// each cut cell's output exactly from its corner signs, an exclusive
// scan turns counts into tet offsets, the mesh is allocated once, and a
// parallel fill writes every cell's tets at its offset.  Tet order is
// ascending cell order on every backend and pool size.
//
// Convention: points with clip scalar >= 0 are KEPT.
#pragma once

#include <span>
#include <vector>

#include "util/parallel.h"
#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::vis {

/// Output of clipping a uniform grid: whole kept cells + tet pieces of
/// cut cells, with a carried per-point scalar on the tet piece mesh.
struct ClipResult {
  HexSubset wholeCells;  ///< cells entirely on the kept side
  TetMesh cutPieces;     ///< tetrahedra from subdivided straddling cells
  std::int64_t cellsIn = 0;    ///< fully kept
  std::int64_t cellsOut = 0;   ///< fully discarded
  std::int64_t cellsCut = 0;   ///< subdivided
};

/// Clip `grid` by the per-point scalar `clipScalar` (size numPoints,
/// keep >= 0).  `carried` (size numPoints) is interpolated onto clip
/// vertices and stored as the output scalar (typically the visualized
/// field).  Spans let callers pass arena-backed scratch arrays.
ClipResult clipUniformGrid(util::ExecutionContext& ctx,
                           const UniformGrid& grid,
                           std::span<const double> clipScalar,
                           std::span<const double> carried);

/// Most tets one hex cell can emit: six decomposition tets, each kept
/// as at most a prism of three tets.
inline constexpr int kMaxHexClipTets = 18;

/// Tets the case routine emits for one tetrahedron with corner clip
/// values `clip`: 1 when 1 or 4 corners are kept, 3 when 2 or 3 are, 0
/// when none.  The count pass of clip and isovolume.
int clippedTetCount(const double clip[4]);

/// Tets clipHexCell emits for a hex with VTK-order corner clip values.
int clippedHexTetCount(const double clip[8]);

/// Clip a single tetrahedron (keep clip >= 0) and write the kept tets'
/// vertices, four per tet, to `points`/`scalars` (room for 3 tets);
/// returns the number of tets written.  The one tet-clipping case
/// routine: every clip path writes through it to fixed output slots.
int clipTetrahedron(const Vec3 pos[4], const double clip[4],
                    const double carry[4], Vec3* points, double* scalars);

/// Appending form of the case routine, for tests: appends kept tets to
/// `out`.
void clipTetrahedron(const Vec3 pos[4], const double clip[4],
                     const double carry[4], TetMesh& out);

/// Clip one hex cell, given its VTK-order corners, through its six
/// decomposition tets in order; writes at most kMaxHexClipTets tets and
/// returns the number written.
int clipHexCell(const Vec3 pos[8], const double clip[8], const double carry[8],
                Vec3* points, double* scalars);

/// Corner positions and point ids of flat cell `cell`, in VTK hex order.
void hexCellCorners(const UniformGrid& grid, Id cell, Vec3 pos[8], Id pts[8]);

/// Size `mesh` as a soup of `tets` tets, four points per tet, writing
/// nothing: the caller's fill writes every tet's points and scalars.
void resizeTetSoup(TetMesh& mesh, Id tets);

/// Count -> scan -> fill `out` as a tet soup over `items` work items, in
/// item order.  `count(i)` is item i's exact tet count; `fill(i, points,
/// scalars)` writes its tets at the item's scanned slot and returns how
/// many it wrote.  `out` is allocated once and first touched by the
/// fill.  Returns each item's first tet.
template <typename Count, typename Fill>
util::ScratchVector<std::int64_t> fillTetSoup(util::ExecutionContext& ctx,
                                              Id items, Count&& count,
                                              Fill&& fill, TetMesh& out) {
  util::ScratchVector<std::int64_t> offsets(ctx.arena(),
                                            static_cast<std::size_t>(items));
  util::parallelFor(ctx, 0, items, [&](Id i) {
    offsets[static_cast<std::size_t>(i)] = count(i);
  });
  const Id total = util::exclusiveScan(ctx, offsets.data(), items);
  resizeTetSoup(out, total);
  util::parallelFor(
      ctx, 0, items,
      [&](Id i) {
        const auto slot = static_cast<std::size_t>(i);
        const Id end = i + 1 < items ? offsets[slot + 1] : total;
        const auto at = static_cast<std::size_t>(4 * offsets[slot]);
        const int tets =
            fill(i, out.points.data() + at, out.pointScalars.data() + at);
        PVIZ_ASSERT(tets == end - offsets[slot]);
      },
      /*grain=*/256);
  return offsets;
}

/// The six tets around the 0-6 main diagonal, as VTK-hex corner indices.
/// Exposed for testing.
const int (*hexTetDecomposition())[4];

}  // namespace pviz::vis
