#include "viz/filters/threshold.h"

#include <array>
#include <optional>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

namespace {

// Average and keep flag of kLanes consecutive cells of one row, in the
// kernel-loop shape of DESIGN §11: each corner is one unit-stride double
// stream at a fixed offset into the point field, the average sums
// c0..c7 left to right from a 0.0 seed (so signed zeros and rounding are
// those of the plain per-cell loop), and the keep flag is a branch-free
// compare-and-select.  __restrict streams and a compile-time lane count
// keep both sweeps inside -O2's very-cheap vectorizer cost model (no
// runtime alias check, no peeled epilogue).  Two sweeps, not one: mixing
// the 8-byte value store with the 1-byte flag store defeats the
// vectorizer at the baseline ISA.  The flag is selected as a double and
// narrowed through int32 because SSE2 has no double-compare-to-int64
// mask; a `bool`-valued flag leaves the loop scalar.
template <Id kLanes>
void selectLanes(const double* __restrict vals,
                 const std::array<Id, 8>& corner, double lo, double hi,
                 double* __restrict valueRow,
                 std::uint8_t* __restrict keepRow) {
  const double* s0 = vals + corner[0];
  const double* s1 = vals + corner[1];
  const double* s2 = vals + corner[2];
  const double* s3 = vals + corner[3];
  const double* s4 = vals + corner[4];
  const double* s5 = vals + corner[5];
  const double* s6 = vals + corner[6];
  const double* s7 = vals + corner[7];
  for (Id i = 0; i < kLanes; ++i) {
    const double sum = ((((((((0.0 + s0[i]) + s1[i]) + s2[i]) + s3[i]) +
                           s4[i]) + s5[i]) + s6[i]) + s7[i]);
    valueRow[i] = sum / 8.0;
  }
  for (Id i = 0; i < kLanes; ++i) {
    const double aboveLo = valueRow[i] >= lo ? 1.0 : 0.0;
    keepRow[i] = static_cast<std::uint8_t>(
        static_cast<std::int32_t>(valueRow[i] <= hi ? aboveLo : 0.0));
  }
}

constexpr Id kSelectLanes = 64;

}  // namespace

ThresholdFilter::Result ThresholdFilter::run(
    util::ExecutionContext& ctx, const UniformGrid& grid,
    const std::string& fieldName) const {
  const Field& field = grid.field(fieldName);
  PVIZ_REQUIRE(field.components() == 1, "threshold requires a scalar field");
  const Id numCells = grid.numCells();
  const bool pointAssoc = field.association() == Association::Points;
  const util::Buffer<double>& values = field.data();

  // Pass 1: per-cell value + keep flag, swept as i-rows with incremental
  // index stepping; pass 2 then touches only the kept cells.
  util::ScratchVector<std::uint8_t> keep(ctx.arena(),
                                         static_cast<std::size_t>(numCells));
  util::ScratchVector<double> cellValue(ctx.arena(),
                                        static_cast<std::size_t>(numCells));
  std::optional<util::ExecutionContext::PhaseScope> phase;
  phase.emplace(ctx, "select");
  if (pointAssoc) {
    const Id rows = grid.numCellRows();
    const Id rowLen = grid.cellDims().i;
    const auto corner = grid.cellCornerOffsets();
    const Id rowGrain =
        std::max<Id>(1, util::kDefaultGrain / std::max<Id>(Id{1}, rowLen));
    const double lo = lo_;
    const double hi = hi_;
    util::parallelForChunks(
        ctx, 0, rows,
        [&](Id rowBegin, Id rowEnd) {
          for (Id row = rowBegin; row < rowEnd; ++row) {
            const Id cell = row * rowLen;
            const double* vals =
                values.data() +
                static_cast<std::size_t>(grid.cellRowFirstPointId(row));
            double* valueRow = cellValue.data() + static_cast<std::size_t>(cell);
            std::uint8_t* keepRow = keep.data() + static_cast<std::size_t>(cell);
            Id i = 0;
            for (; i + kSelectLanes <= rowLen; i += kSelectLanes) {
              selectLanes<kSelectLanes>(vals + i, corner, lo, hi,
                                        valueRow + i, keepRow + i);
            }
            for (; i < rowLen; ++i) {
              selectLanes<1>(vals + i, corner, lo, hi, valueRow + i,
                             keepRow + i);
            }
          }
        },
        rowGrain);
  } else {
    util::parallelFor(ctx, 0, numCells, [&](Id cell) {
      const double v = values[static_cast<std::size_t>(cell)];
      cellValue[static_cast<std::size_t>(cell)] = v;
      keep[static_cast<std::size_t>(cell)] = (v >= lo_ && v <= hi_) ? 1 : 0;
    });
  }

  // Compacted kept-cell list IS the output id array.
  phase.emplace(ctx, "scan");
  const std::vector<std::int64_t> kept = util::parallelSelect(
      ctx, numCells, [&](std::int64_t cell) {
        return keep[static_cast<std::size_t>(cell)] != 0;
      });
  const auto numKept = static_cast<std::int64_t>(kept.size());

  phase.emplace(ctx, "compact");
  Result result;
  result.kept.cellIds.resize(static_cast<std::size_t>(numKept));
  result.kept.cellScalars.resize(static_cast<std::size_t>(numKept));
  util::parallelFor(ctx, 0, numKept, [&](Id n) {
    const Id cell = kept[static_cast<std::size_t>(n)];
    result.kept.cellIds[static_cast<std::size_t>(n)] = cell;
    result.kept.cellScalars[static_cast<std::size_t>(n)] =
        cellValue[static_cast<std::size_t>(cell)];
  });
  phase.reset();

  // --- Workload characterization: loads/stores dominate (the paper notes
  // threshold's low IPC comes from being dominated by data movement).
  result.profile.kernel = "threshold";
  result.profile.elements = numCells;
  const double cells = static_cast<double>(numCells);
  const double keptCount = static_cast<double>(numKept);

  WorkProfile& select = result.profile.addPhase("select");
  select.flops = cells * (pointAssoc ? 10.0 : 2.0);  // average + compares
  select.intOps = cells * 14;
  select.memOps = cells * (pointAssoc ? 12.0 : 4.0);
  select.bytesStreamed = field.sizeBytes() + cells * (8 + 8);  // field + flag/value
  select.bytesReused = pointAssoc ? cells * 36 : 0.0;
  select.irregularAccesses = pointAssoc ? cells * 3.4 : 0.6 * cells;
  // Sliding plane-window gathers: LLC-resident at any size.
  select.workingSetBytes = static_cast<double>(grid.pointDims().i) *
                           static_cast<double>(grid.pointDims().j) * 8 * 4;
  select.parallelFraction = 0.995;
  select.overlap = 0.92;

  WorkProfile& scan = result.profile.addPhase("scan");
  scan.intOps = cells * 4;
  scan.memOps = cells * 3;
  scan.bytesStreamed = cells * 8 * 2;
  scan.parallelFraction = 0.9;
  scan.overlap = 0.9;

  WorkProfile& compact = result.profile.addPhase("compact");
  compact.intOps = cells * 6 + keptCount * 6;
  compact.memOps = cells * 2 + keptCount * 4;
  compact.bytesStreamed = cells * 8 + keptCount * 16;
  compact.parallelFraction = 0.99;
  compact.overlap = 0.92;

  return result;
}

}  // namespace pviz::vis
