#include "viz/rendering/external_faces.h"

#include <bit>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

// Local corner indices (VTK hex order) of each of the six faces, wound
// so the outward normal points away from the cell.
constexpr int kFaceCorners[6][4] = {
    {0, 4, 7, 3},  // -i
    {1, 2, 6, 5},  // +i
    {0, 1, 5, 4},  // -j
    {3, 7, 6, 2},  // +j
    {0, 3, 2, 1},  // -k
    {4, 5, 6, 7},  // +k
};

// Constant fill of kLanes cells' masks and face counts, in the
// kernel-loop shape of DESIGN §11: __restrict rows and a compile-time
// lane count, so -O2's very-cheap vectorizer cost model takes the int64
// count fill (no runtime alias check, no peeled epilogue).  The byte
// fill becomes a memset.
template <Id kLanes>
void fillLanes(std::uint8_t mask, std::int64_t count,
               std::uint8_t* __restrict maskRow,
               std::int64_t* __restrict countRow) {
  for (Id i = 0; i < kLanes; ++i) maskRow[i] = mask;
  for (Id i = 0; i < kLanes; ++i) countRow[i] = count;
}

constexpr Id kFillLanes = 64;

}  // namespace

ExternalFacesResult extractExternalFaces(util::ExecutionContext& ctx,
                                         const UniformGrid& grid,
                                         const std::string& fieldName) {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "external faces carries a point field");
  const util::Buffer<double>& values = field.data();
  const Id numCells = grid.numCells();
  const Id3 cd = grid.cellDims();
  const Id rows = grid.numCellRows();
  const Id rowLen = cd.i;
  const Id rowGrain =
      std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));

  // Pass 1: classify — a 6-bit external-face mask per cell.  The j/k
  // face bits are constant along a row, so the sweep fills each row with
  // that constant mask and its popcount, then patches the two ±i end
  // cells.  Arena memory is uninitialized, so the sentinel slot the scan
  // needs must be zeroed explicitly (every other slot is written by the
  // sweep).
  util::ScratchVector<std::uint8_t> faceMask(
      ctx.arena(), static_cast<std::size_t>(numCells));
  util::ScratchVector<std::int64_t> offsets(
      ctx.arena(), static_cast<std::size_t>(numCells) + 1);
  offsets[static_cast<std::size_t>(numCells)] = 0;
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "face-classify");
  util::parallelForChunks(
      ctx, 0, rows,
      [&](Id rowBegin, Id rowEnd) {
        for (Id row = rowBegin; row < rowEnd; ++row) {
          const Id3 r = grid.cellRowIjk(row);
          std::uint8_t rowBits = 0;
          if (r.j == 0) rowBits |= 1u << 2;          // -j
          if (r.j == cd.j - 1) rowBits |= 1u << 3;   // +j
          if (r.k == 0) rowBits |= 1u << 4;          // -k
          if (r.k == cd.k - 1) rowBits |= 1u << 5;   // +k
          const Id cell = row * rowLen;
          std::uint8_t* maskRow =
              faceMask.data() + static_cast<std::size_t>(cell);
          std::int64_t* countRow =
              offsets.data() + static_cast<std::size_t>(cell);
          const std::int64_t rowCount =
              std::popcount(static_cast<unsigned>(rowBits));
          Id i = 0;
          for (; i + kFillLanes <= rowLen; i += kFillLanes) {
            fillLanes<kFillLanes>(rowBits, rowCount, maskRow + i,
                                  countRow + i);
          }
          for (; i < rowLen; ++i) {
            fillLanes<1>(rowBits, rowCount, maskRow + i, countRow + i);
          }
          maskRow[0] |= 1u << 0;                    // -i
          maskRow[rowLen - 1] |= 1u << 1;           // +i
          countRow[0] = std::popcount(static_cast<unsigned>(maskRow[0]));
          countRow[rowLen - 1] =
              std::popcount(static_cast<unsigned>(maskRow[rowLen - 1]));
        }
      },
      rowGrain);

  // Compacted boundary-cell list: interior cells never reach pass 2.
  phase.emplace(ctx, "face-scan");
  const std::vector<std::int64_t> active = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return faceMask[static_cast<std::size_t>(cell)] != 0;
      });

  const std::int64_t numFaces =
      util::exclusiveScan(ctx, offsets.data(),
                          static_cast<std::int64_t>(numCells) + 1);

  ExternalFacesResult result;
  result.cellsScanned = numCells;
  result.facesFound = numFaces;
  TriangleMesh& mesh = result.mesh;
  mesh.points.resize(static_cast<std::size_t>(numFaces) * 4);
  mesh.pointScalars.resize(static_cast<std::size_t>(numFaces) * 4);
  mesh.connectivity.resize(static_cast<std::size_t>(numFaces) * 6);

  // Pass 2: emit 4 corner vertices + 2 triangles per external face,
  // driven by the cached face mask (no neighbor re-tests).
  phase.emplace(ctx, "face-generate");
  util::parallelFor(ctx, 0, static_cast<Id>(active.size()), [&](Id n) {
    const Id cell = active[static_cast<std::size_t>(n)];
    std::int64_t at = offsets[static_cast<std::size_t>(cell)];
    const std::uint8_t mask = faceMask[static_cast<std::size_t>(cell)];
    const Id3 c = grid.cellIjk(cell);
    Id pts[8];
    grid.cellPointIds(c, pts);
    static constexpr Id kOffsets[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0},
                                          {0, 1, 0}, {0, 0, 1}, {1, 0, 1},
                                          {1, 1, 1}, {0, 1, 1}};
    for (int f = 0; f < 6; ++f) {
      if (((mask >> f) & 1u) == 0) continue;
      const std::size_t vBase = static_cast<std::size_t>(at) * 4;
      for (int v = 0; v < 4; ++v) {
        const int corner = kFaceCorners[f][v];
        mesh.points[vBase + static_cast<std::size_t>(v)] =
            grid.pointPosition(Id3{c.i + kOffsets[corner][0],
                                   c.j + kOffsets[corner][1],
                                   c.k + kOffsets[corner][2]});
        mesh.pointScalars[vBase + static_cast<std::size_t>(v)] =
            values[static_cast<std::size_t>(pts[corner])];
      }
      const std::size_t tBase = static_cast<std::size_t>(at) * 6;
      const Id v0 = static_cast<Id>(vBase);
      mesh.connectivity[tBase + 0] = v0;
      mesh.connectivity[tBase + 1] = v0 + 1;
      mesh.connectivity[tBase + 2] = v0 + 2;
      mesh.connectivity[tBase + 3] = v0;
      mesh.connectivity[tBase + 4] = v0 + 2;
      mesh.connectivity[tBase + 5] = v0 + 3;
      ++at;
    }
  });
  phase.reset();

  return result;
}

}  // namespace pviz::vis
