#include "viz/filters/contour.h"

#include <array>
#include <cmath>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"
#include "viz/filters/mc_tables.h"

namespace pviz::vis {

std::vector<double> ContourFilter::uniformIsovalues(const Field& field,
                                                    int count) {
  PVIZ_REQUIRE(count >= 1, "need at least one isovalue");
  const auto [lo, hi] = field.range();
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (int i = 1; i <= count; ++i) {
    values.push_back(lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(count + 1));
  }
  return values;
}

namespace {

// Interpolated position + scalar on a cut cube edge.
struct EdgeVertex {
  Vec3 position;
  double scalar;
};

// Corner offsets in (i,j,k) follow the VTK hexahedron ordering.
constexpr Id kCornerIjk[8][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                                 {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};

EdgeVertex interpolateEdge(const Vec3 cornerPos[8], int edge,
                           const double corner[8], double isovalue) {
  const auto* pair = McTables::kEdgeCorners[edge];
  const int a = pair[0];
  const int b = pair[1];
  const double va = corner[a];
  const double vb = corner[b];
  const double denom = vb - va;
  const double t = denom != 0.0 ? (isovalue - va) / denom : 0.5;
  return {lerp(cornerPos[a], cornerPos[b], t), isovalue};
}

// Classify kLanes consecutive cells of one row: each corner is one
// unit-stride byte stream at a fixed offset into the staged above[]
// bytes, and the case index is eight ORed corner bits of those streams —
// branch-free, gather-free, one SIMD OR tree per lane.
// Three details keep the loop inside -O2's very-cheap vectorizer cost
// model at the baseline ISA:
//   * __restrict parameters, so the case stores need no runtime alias
//     check against the corner streams;
//   * (0 - s) & bit instead of s << k (the streams hold 0 or 1): SSE2
//     has byte negate/and/or but no byte shifts;
//   * a compile-time lane count, so the vector loop needs no peeled
//     epilogue (rows run in 64-lane blocks plus a one-lane tail).
template <Id kLanes>
void caseLanes(const std::uint8_t* __restrict above,
               const std::array<Id, 8>& corner,
               std::uint8_t* __restrict caseRow) {
  const std::uint8_t* s0 = above + corner[0];
  const std::uint8_t* s1 = above + corner[1];
  const std::uint8_t* s2 = above + corner[2];
  const std::uint8_t* s3 = above + corner[3];
  const std::uint8_t* s4 = above + corner[4];
  const std::uint8_t* s5 = above + corner[5];
  const std::uint8_t* s6 = above + corner[6];
  const std::uint8_t* s7 = above + corner[7];
  auto bit = [](std::uint8_t s, unsigned b) {
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(0u - s) & b);
  };
  for (Id i = 0; i < kLanes; ++i) {
    caseRow[i] = static_cast<std::uint8_t>(
        s0[i] | bit(s1[i], 2) | bit(s2[i], 4) | bit(s3[i], 8) |
        bit(s4[i], 16) | bit(s5[i], 32) | bit(s6[i], 64) | bit(s7[i], 128));
  }
}

constexpr Id kCaseLanes = 64;

}  // namespace

ContourFilter::Result ContourFilter::run(util::ExecutionContext& ctx,
                                         const UniformGrid& grid,
                                         const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.association() == Association::Points,
               "contour requires a point field");
  PVIZ_REQUIRE(field.components() == 1, "contour requires a scalar field");
  PVIZ_REQUIRE(!isovalues_.empty(),
               "no isovalues set — call setIsovalues or uniformIsovalues");

  const McTables& tables = McTables::instance();
  const Id numCells = grid.numCells();
  const Id numPoints = grid.numPoints();
  const Id rows = grid.numCellRows();
  const Id rowLen = grid.cellDims().i;
  const auto corner = grid.cellCornerOffsets();
  const Id rowGrain =
      std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));
  const util::Buffer<double>& values = field.data();

  Result result;
  result.profile.kernel = "contour";
  result.profile.elements = numCells;  // Moreland–Oldfield rate uses n

  std::int64_t totalCrossed = 0;

  // Per-pass compacted state, kept so every pass is classified before
  // the output mesh is sized: the ascending active-cell list, each
  // active cell's case index, and its scanned triangle offsets
  // (nActive + 1 entries).  Only a few percent of cells are crossed, so
  // holding every pass is cheap — and it lets the output arrays be
  // allocated exactly once at their final size instead of growing
  // (realloc + copy) per pass.  The full-grid above/case bytes are
  // rewritten by every pass, so one pair serves them all.
  struct Pass {
    std::vector<std::int64_t> active;
    std::vector<std::uint8_t> cases;
    std::vector<std::int64_t> offsets;
    std::int64_t triangles = 0;
  };
  std::vector<Pass> passData(isovalues_.size());
  util::ScratchVector<std::uint8_t> above;
  util::ScratchVector<std::uint8_t> caseOf;
  std::int64_t totalTriangles = 0;
  std::optional<util::ExecutionContext::PhaseScope> phase;

  for (std::size_t pi = 0; pi < isovalues_.size(); ++pi) {
    const double isovalue = isovalues_[pi];
    Pass& pass = passData[pi];

    phase.emplace(ctx, "mc-classify");
    if (pi == 0) {
      above.acquire(ctx.arena(), static_cast<std::size_t>(numPoints));
      caseOf.acquire(ctx.arena(), static_cast<std::size_t>(numCells));
    }
    // --- Pass 1: classify — compare each point once, then assemble the
    // MC case per cell from the cached above/below bytes.  Cells are
    // swept as i-rows in caseLanes blocks: all eight corners are loaded
    // per cell from unit-stride streams, branch-free.  (Stepping a cell's
    // case from its predecessor's shared face would load only four
    // corners, but the loop-carried dependency keeps the sweep scalar.)
    util::parallelFor(ctx, 0, numPoints, [&](Id p) {
      above[static_cast<std::size_t>(p)] =
          values[static_cast<std::size_t>(p)] >= isovalue ? 1 : 0;
    });
    util::parallelForChunks(
        ctx, 0, rows,
        [&](Id rowBegin, Id rowEnd) {
          for (Id row = rowBegin; row < rowEnd; ++row) {
            const std::uint8_t* abv =
                above.data() +
                static_cast<std::size_t>(grid.cellRowFirstPointId(row));
            std::uint8_t* caseRow =
                caseOf.data() + static_cast<std::size_t>(row * rowLen);
            Id i = 0;
            for (; i + kCaseLanes <= rowLen; i += kCaseLanes) {
              caseLanes<kCaseLanes>(abv + i, corner, caseRow + i);
            }
            for (; i < rowLen; ++i) {
              caseLanes<1>(abv + i, corner, caseRow + i);
            }
          }
        },
        rowGrain);

    phase.emplace(ctx, "mc-scan");
    // Compact the crossed cells, then count and scan over them alone:
    // the scan touches nActive + 1 entries instead of every cell.
    pass.active = util::parallelSelect(ctx, numCells, [&](std::int64_t cell) {
      return tables.triangleCount[caseOf[static_cast<std::size_t>(cell)]] > 0;
    });
    const Id nActive = static_cast<Id>(pass.active.size());
    totalCrossed += nActive;
    pass.cases.resize(static_cast<std::size_t>(nActive));
    pass.offsets.resize(static_cast<std::size_t>(nActive) + 1);
    util::parallelFor(ctx, 0, nActive, [&](Id n) {
      const auto at = static_cast<std::size_t>(n);
      const std::uint8_t c =
          caseOf[static_cast<std::size_t>(pass.active[at])];
      pass.cases[at] = c;
      pass.offsets[at] = tables.triangleCount[c];
    });
    pass.triangles = util::exclusiveScan(ctx, pass.offsets);
    totalTriangles += pass.triangles;
    result.passTriangles.push_back(pass.triangles);
  }

  // --- Pass 2: generate — interpolate and write triangles for the
  // crossed cells only, re-reading the cached case index instead of
  // re-classifying the corners.  Output goes straight into the result
  // mesh at a per-pass base offset (no per-pass staging mesh + append
  // copy); the layout matches what sequential appends would produce.
  phase.emplace(ctx, "mc-generate");
  TriangleMesh& surface = result.surface;
  surface.points.resize(static_cast<std::size_t>(totalTriangles) * 3);
  surface.pointScalars.resize(static_cast<std::size_t>(totalTriangles) * 3);
  surface.connectivity.resize(static_cast<std::size_t>(totalTriangles) * 3);

  std::size_t passBase = 0;
  for (std::size_t pi = 0; pi < isovalues_.size(); ++pi) {
    const double isovalue = isovalues_[pi];
    const Pass& pass = passData[pi];

    util::parallelFor(ctx, 0, static_cast<Id>(pass.active.size()), [&](Id n) {
      const Id cell = pass.active[static_cast<std::size_t>(n)];
      const std::int64_t first = pass.offsets[static_cast<std::size_t>(n)];
      const std::int64_t count =
          pass.offsets[static_cast<std::size_t>(n) + 1] - first;

      const Id3 c = grid.cellIjk(cell);
      const Id base = grid.pointId(c);
      double corners[8];
      Vec3 cornerPos[8];
      for (int i = 0; i < 8; ++i) {
        corners[i] = values[static_cast<std::size_t>(base + corner[i])];
        cornerPos[i] = grid.pointPosition(Id3{c.i + kCornerIjk[i][0],
                                              c.j + kCornerIjk[i][1],
                                              c.k + kCornerIjk[i][2]});
      }
      const int caseIndex = pass.cases[static_cast<std::size_t>(n)];

      // Estimate the field gradient from corner differences; used to give
      // every triangle a consistent orientation (normal toward lower
      // values, i.e. pointing out of the enclosed high-valued region).
      const Vec3 gradient{
          (corners[1] - corners[0]) + (corners[2] - corners[3]) +
              (corners[5] - corners[4]) + (corners[6] - corners[7]),
          (corners[3] - corners[0]) + (corners[2] - corners[1]) +
              (corners[7] - corners[4]) + (corners[6] - corners[5]),
          (corners[4] - corners[0]) + (corners[5] - corners[1]) +
              (corners[6] - corners[2]) + (corners[7] - corners[3])};

      const auto& tri = tables.triangles[static_cast<std::size_t>(caseIndex)];
      for (std::int64_t t = 0; t < count; ++t) {
        EdgeVertex v[3];
        for (int k = 0; k < 3; ++k) {
          const int edge = tri[static_cast<std::size_t>(3 * t + k)];
          v[k] = interpolateEdge(cornerPos, edge, corners, isovalue);
        }
        const Vec3 normal =
            cross(v[1].position - v[0].position, v[2].position - v[0].position);
        if (dot(normal, gradient) > 0.0) std::swap(v[1], v[2]);

        const std::size_t vbase =
            passBase + static_cast<std::size_t>(first + t) * 3;
        for (int k = 0; k < 3; ++k) {
          surface.points[vbase + static_cast<std::size_t>(k)] = v[k].position;
          surface.pointScalars[vbase + static_cast<std::size_t>(k)] =
              v[k].scalar;
          surface.connectivity[vbase + static_cast<std::size_t>(k)] =
              static_cast<Id>(vbase) + k;
        }
      }
    });
    passBase += static_cast<std::size_t>(pass.triangles) * 3;
  }
  phase.reset();

  // --- Workload characterization (real counts from this run). -----------
  const double passes = static_cast<double>(isovalues_.size());
  const double cells = static_cast<double>(numCells) * passes;
  const double crossed = static_cast<double>(totalCrossed);
  const double tris = static_cast<double>(result.surface.numTriangles());

  // Classify: per cell, 8 corner loads, case assembly, table lookup,
  // count store.  The corner gather streams the point field once per
  // pass; 7 of 8 corner loads hit cache (shared with neighbors).
  WorkProfile& classify = result.profile.addPhase("mc-classify");
  classify.flops = cells * 8;                 // corner comparisons
  classify.intOps = cells * 14;               // ijk decode, case bits, lookup
  classify.memOps = cells * 10;               // 8 gathers + table + count
  classify.bytesStreamed =
      passes * field.sizeBytes() + cells * 12;  // field read + counts r/w
  classify.bytesReused = cells * 40;            // corner-line revisits
  classify.irregularAccesses = cells * 2.2;     // cross-plane gathers
  // The sweep's gathers touch a sliding window of a few ij-planes —
  // LLC-resident at any dataset size.
  classify.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                             static_cast<double>(grid.pointDims().j) * 8 * 4;
  classify.parallelFraction = 0.995;
  classify.overlap = 0.9;

  // Generate: revisit crossed cells, 3 edge interpolations per triangle,
  // orientation fix, streamed output writes.
  WorkProfile& generate = result.profile.addPhase("mc-generate");
  generate.flops = crossed * 11 + tris * 46;  // gradient + lerps + normal
  generate.intOps = crossed * 40 + tris * 24;
  generate.memOps = crossed * 14 + tris * 24;
  generate.bytesStreamed = crossed * 16 + tris * 3 * (24 + 8 + 8);
  generate.bytesReused = crossed * 8 * 8;
  generate.irregularAccesses = crossed * 4;
  generate.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                             static_cast<double>(grid.pointDims().j) * 8 * 4;
  generate.parallelFraction = 0.99;
  generate.overlap = 0.85;

  // The exclusive scan between passes (a parallel three-phase tree scan
  // here, matching VTK-m's device scan).
  WorkProfile& scan = result.profile.addPhase("mc-scan");
  scan.intOps = cells * 4;
  scan.memOps = cells * 3;
  scan.bytesStreamed = cells * 8 * 2;
  scan.parallelFraction = 0.9;
  scan.overlap = 0.9;

  return result;
}

}  // namespace pviz::vis
