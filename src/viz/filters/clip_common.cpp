#include "viz/filters/clip_common.h"

#include <array>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

// Six tetrahedra around the 0-6 main diagonal (VTK hex corner indices).
// Every tet lists the shared diagonal endpoints first and winds so the
// signed volume is positive for an axis-aligned cell.
constexpr int kHexTets[6][4] = {{0, 1, 2, 6}, {0, 2, 3, 6}, {0, 3, 7, 6},
                                {0, 7, 4, 6}, {0, 4, 5, 6}, {0, 5, 1, 6}};

// (i, j, k) offsets of the VTK hex corners from the cell's base point.
constexpr Id kCornerOffsets[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                     {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                     {1, 1, 1}, {0, 1, 1}};

struct ClipVertex {
  Vec3 position;
  double carry;
};

ClipVertex edgePoint(const Vec3& pa, const Vec3& pb, double sa, double sb,
                     double ca, double cb) {
  const double denom = sa - sb;
  const double t = denom != 0.0 ? sa / denom : 0.5;
  return {lerp(pa, pb, t), lerp(ca, cb, t)};
}

// Writes tets, four vertices each, to consecutive fixed slots.
struct TetWriter {
  Vec3* points;
  double* scalars;
  int tets = 0;

  void tet(const ClipVertex& a, const ClipVertex& b, const ClipVertex& c,
           const ClipVertex& d) {
    const ClipVertex* corners[4] = {&a, &b, &c, &d};
    for (int i = 0; i < 4; ++i) {
      points[4 * tets + i] = corners[i]->position;
      scalars[4 * tets + i] = corners[i]->carry;
    }
    ++tets;
  }

  // Split the prism with triangle faces (t0,t1,t2) / (b0,b1,b2) into
  // three tets.  Valid for the mildly warped prisms tet clipping makes.
  void prism(const ClipVertex& t0, const ClipVertex& t1, const ClipVertex& t2,
             const ClipVertex& b0, const ClipVertex& b1,
             const ClipVertex& b2) {
    tet(t0, t1, t2, b0);
    tet(t1, t2, b0, b2);
    tet(t1, b0, b1, b2);
  }
};

// Clip state (0 = out, 1 = in, 2 = cut) of kLanes consecutive cells of
// one row, in the kernel-loop shape of DESIGN §11: eight unit-stride sign
// tests summed branch-free per cell into a staging block of doubles
// (counts 0..8 are exact in double, and the selects become SIMD
// and-masks), then a second sweep narrows the staged counts to state
// bytes through int32.  The staging keeps the hot loop all-double, and
// __restrict streams plus a compile-time lane count keep both sweeps
// inside -O2's very-cheap vectorizer cost model.  The nested select is
// spelled as two named selects: GCC 12 folds the inline form into a
// bool conversion SSE2 cannot vectorize.
template <Id kLanes>
void stateLanes(const double* __restrict clip, const std::array<Id, 8>& corner,
                std::uint8_t* __restrict stateRow) {
  const double* s0 = clip + corner[0];
  const double* s1 = clip + corner[1];
  const double* s2 = clip + corner[2];
  const double* s3 = clip + corner[3];
  const double* s4 = clip + corner[4];
  const double* s5 = clip + corner[5];
  const double* s6 = clip + corner[6];
  const double* s7 = clip + corner[7];
  double nKeep[kLanes];
  for (Id i = 0; i < kLanes; ++i) {
    nKeep[i] = (s0[i] >= 0.0 ? 1.0 : 0.0) + (s1[i] >= 0.0 ? 1.0 : 0.0) +
               (s2[i] >= 0.0 ? 1.0 : 0.0) + (s3[i] >= 0.0 ? 1.0 : 0.0) +
               (s4[i] >= 0.0 ? 1.0 : 0.0) + (s5[i] >= 0.0 ? 1.0 : 0.0) +
               (s6[i] >= 0.0 ? 1.0 : 0.0) + (s7[i] >= 0.0 ? 1.0 : 0.0);
  }
  for (Id i = 0; i < kLanes; ++i) {
    const double k = nKeep[i];
    const double outOrCut = k == 0.0 ? 0.0 : 2.0;
    stateRow[i] = static_cast<std::uint8_t>(
        static_cast<std::int32_t>(k == 8.0 ? 1.0 : outOrCut));
  }
}

constexpr Id kStateLanes = 64;

}  // namespace

const int (*hexTetDecomposition())[4] { return kHexTets; }

int clippedTetCount(const double clip[4]) {
  static constexpr int kTetsByKept[5] = {0, 1, 3, 3, 1};
  int kept = 0;
  for (int i = 0; i < 4; ++i) kept += clip[i] >= 0.0 ? 1 : 0;
  return kTetsByKept[kept];
}

int clippedHexTetCount(const double clip[8]) {
  int tets = 0;
  for (const auto& tet : kHexTets) {
    const double tc[4] = {clip[tet[0]], clip[tet[1]], clip[tet[2]],
                          clip[tet[3]]};
    tets += clippedTetCount(tc);
  }
  return tets;
}

int clipTetrahedron(const Vec3 pos[4], const double clip[4],
                    const double carry[4], Vec3* points, double* scalars) {
  int keepMask = 0;
  for (int i = 0; i < 4; ++i) {
    if (clip[i] >= 0.0) keepMask |= 1 << i;
  }
  if (keepMask == 0) return 0;

  auto vert = [&](int i) -> ClipVertex { return {pos[i], carry[i]}; };
  auto cut = [&](int a, int b) -> ClipVertex {
    return edgePoint(pos[a], pos[b], clip[a], clip[b], carry[a], carry[b]);
  };
  TetWriter out{points, scalars};

  if (keepMask == 0xF) {
    out.tet(vert(0), vert(1), vert(2), vert(3));
    return out.tets;
  }

  int kept[4];
  int lost[4];
  int nKept = 0;
  int nLost = 0;
  for (int i = 0; i < 4; ++i) {
    if ((keepMask >> i) & 1) {
      kept[nKept++] = i;
    } else {
      lost[nLost++] = i;
    }
  }

  if (nKept == 1) {
    // Small tet: kept corner + three cut points toward the lost corners.
    const int a = kept[0];
    out.tet(vert(a), cut(a, lost[0]), cut(a, lost[1]), cut(a, lost[2]));
  } else if (nKept == 2) {
    // Prism: the two kept corners and four cut points.
    const int a = kept[0];
    const int b = kept[1];
    const int c = lost[0];
    const int d = lost[1];
    out.prism(vert(a), cut(a, c), cut(a, d), vert(b), cut(b, c), cut(b, d));
  } else {  // nKept == 3: tet minus a corner tet = prism.
    const int d = lost[0];
    const int a = kept[0];
    const int b = kept[1];
    const int c = kept[2];
    out.prism(vert(a), vert(b), vert(c), cut(a, d), cut(b, d), cut(c, d));
  }
  return out.tets;
}

void clipTetrahedron(const Vec3 pos[4], const double clip[4],
                     const double carry[4], TetMesh& out) {
  Vec3 points[12];
  double scalars[12];
  const int n = 4 * clipTetrahedron(pos, clip, carry, points, scalars);
  out.points.insert(out.points.end(), points, points + n);
  out.pointScalars.insert(out.pointScalars.end(), scalars, scalars + n);
}

int clipHexCell(const Vec3 pos[8], const double clip[8], const double carry[8],
                Vec3* points, double* scalars) {
  int tets = 0;
  for (const auto& tet : kHexTets) {
    const Vec3 tp[4] = {pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]]};
    const double tc[4] = {clip[tet[0]], clip[tet[1]], clip[tet[2]],
                          clip[tet[3]]};
    const double ta[4] = {carry[tet[0]], carry[tet[1]], carry[tet[2]],
                          carry[tet[3]]};
    tets += clipTetrahedron(tp, tc, ta, points + 4 * tets, scalars + 4 * tets);
  }
  return tets;
}

void hexCellCorners(const UniformGrid& grid, Id cell, Vec3 pos[8],
                    Id pts[8]) {
  const Id3 c = grid.cellIjk(cell);
  grid.cellPointIds(c, pts);
  for (int i = 0; i < 8; ++i) {
    pos[i] = grid.pointPosition(Id3{c.i + kCornerOffsets[i][0],
                                    c.j + kCornerOffsets[i][1],
                                    c.k + kCornerOffsets[i][2]});
  }
}

void resizeTetSoup(TetMesh& mesh, Id tets) {
  const auto n = static_cast<std::size_t>(4 * tets);
  mesh.points.resize(n);
  mesh.pointScalars.resize(n);
}

ClipResult clipUniformGrid(util::ExecutionContext& ctx,
                           const UniformGrid& grid,
                           std::span<const double> clipScalar,
                           std::span<const double> carried) {
  PVIZ_REQUIRE(static_cast<Id>(clipScalar.size()) == grid.numPoints(),
               "clip scalar must be a per-point array");
  PVIZ_REQUIRE(static_cast<Id>(carried.size()) == grid.numPoints(),
               "carried scalar must be a per-point array");

  const Id numCells = grid.numCells();
  const Id rows = grid.numCellRows();
  const Id rowLen = grid.cellDims().i;
  const auto corner = grid.cellCornerOffsets();
  const Id rowGrain =
      std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));
  ClipResult result;

  // Pass 1: classify cells (0 = out, 1 = in, 2 = cut), swept as i-rows.
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "classify");
  util::ScratchVector<std::uint8_t> state(ctx.arena(),
                                          static_cast<std::size_t>(numCells));
  util::parallelForChunks(
      ctx, 0, rows,
      [&](Id rowBegin, Id rowEnd) {
        for (Id row = rowBegin; row < rowEnd; ++row) {
          const double* clip =
              clipScalar.data() +
              static_cast<std::size_t>(grid.cellRowFirstPointId(row));
          std::uint8_t* stateRow =
              state.data() + static_cast<std::size_t>(row * rowLen);
          Id i = 0;
          for (; i + kStateLanes <= rowLen; i += kStateLanes) {
            stateLanes<kStateLanes>(clip + i, corner, stateRow + i);
          }
          for (; i < rowLen; ++i) {
            stateLanes<1>(clip + i, corner, stateRow + i);
          }
        }
      },
      rowGrain);

  // Compacted whole-kept and cut lists replace the full-grid re-sweep;
  // both are in ascending cell order.
  const std::vector<std::int64_t> wholeList = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return state[static_cast<std::size_t>(cell)] == 1;
      });
  const std::vector<std::int64_t> cutList = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return state[static_cast<std::size_t>(cell)] == 2;
      });
  result.cellsIn = static_cast<std::int64_t>(wholeList.size());
  result.cellsCut = static_cast<std::int64_t>(cutList.size());
  result.cellsOut = numCells - result.cellsIn - result.cellsCut;

  // Pass 2a: whole kept cells — direct scatter to compacted slots.
  phase.emplace(ctx, "compact");
  result.wholeCells.cellIds.resize(wholeList.size());
  result.wholeCells.cellScalars.resize(wholeList.size());
  util::parallelFor(ctx, 0, static_cast<Id>(wholeList.size()), [&](Id n) {
    const Id cell = wholeList[static_cast<std::size_t>(n)];
    Id pts[8];
    grid.cellPointIds(grid.cellIjk(cell), pts);
    double avg = 0.0;
    for (int i = 0; i < 8; ++i) {
      avg += carried[static_cast<std::size_t>(pts[i])];
    }
    result.wholeCells.cellIds[static_cast<std::size_t>(n)] = cell;
    result.wholeCells.cellScalars[static_cast<std::size_t>(n)] = avg / 8.0;
  });

  // Pass 2b: cut cells — count each cell's tets from its corner signs,
  // scan the counts into tet offsets, size the soup once, and fill every
  // cell's tets at its offset.
  phase.emplace(ctx, "subdivide");
  auto gather = [&](Id n, Vec3 pos[8], double clip[8], double carry[8]) {
    Id pts[8];
    hexCellCorners(grid, cutList[static_cast<std::size_t>(n)], pos, pts);
    for (int i = 0; i < 8; ++i) {
      clip[i] = clipScalar[static_cast<std::size_t>(pts[i])];
      carry[i] = carried[static_cast<std::size_t>(pts[i])];
    }
  };
  fillTetSoup(
      ctx, static_cast<Id>(cutList.size()),
      [&](Id n) {
        Vec3 pos[8];
        double clip[8];
        double carry[8];
        gather(n, pos, clip, carry);
        return clippedHexTetCount(clip);
      },
      [&](Id n, Vec3* points, double* scalars) {
        Vec3 pos[8];
        double clip[8];
        double carry[8];
        gather(n, pos, clip, carry);
        return clipHexCell(pos, clip, carry, points, scalars);
      },
      result.cutPieces);
  return result;
}

}  // namespace pviz::vis
