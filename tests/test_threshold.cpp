// Threshold filter tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/filters/threshold.h"

namespace pviz::vis {
namespace {

UniformGrid zGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("z", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).z);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Threshold, KeepsEverythingForFullRange) {
  util::ExecutionContext ctx;
  const UniformGrid g = zGrid(8);
  ThresholdFilter filter;
  filter.setRange(-1.0, 2.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), g.numCells());
}

TEST(Threshold, KeepsNothingForEmptyRange) {
  util::ExecutionContext ctx;
  const UniformGrid g = zGrid(8);
  ThresholdFilter filter;
  filter.setRange(5.0, 6.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), 0);
}

TEST(Threshold, LinearFieldKeepsExactSlabOfCells)  {
  util::ExecutionContext ctx;
  // Cell average of z is (k + 0.5) * h; keep the bottom half exactly.
  const Id n = 10;
  const UniformGrid g = zGrid(n);
  ThresholdFilter filter;
  filter.setRange(0.0, 0.5);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.kept.numCells(), n * n * (n / 2));
}

TEST(Threshold, KeptCellsActuallySatisfyRange) {
  util::ExecutionContext ctx;
  const UniformGrid g = zGrid(9);
  ThresholdFilter filter;
  filter.setRange(0.3, 0.7);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_GT(result.kept.numCells(), 0);
  const Field& f = g.field("z");
  for (Id i = 0; i < result.kept.numCells(); ++i) {
    const Id cell = result.kept.cellIds[static_cast<std::size_t>(i)];
    Id pts[8];
    g.cellPointIds(g.cellIjk(cell), pts);
    double avg = 0.0;
    for (int k = 0; k < 8; ++k) avg += f.value(pts[k]);
    avg /= 8.0;
    ASSERT_GE(avg, 0.3);
    ASSERT_LE(avg, 0.7);
    ASSERT_DOUBLE_EQ(result.kept.cellScalars[static_cast<std::size_t>(i)],
                     avg);
  }
}

TEST(Threshold, CellIdsAreSortedAndUnique) {
  util::ExecutionContext ctx;
  const UniformGrid g = zGrid(7);
  ThresholdFilter filter;
  filter.setRange(0.2, 0.9);
  const auto result = filter.run(ctx, g, "z");
  for (std::size_t i = 1; i < result.kept.cellIds.size(); ++i) {
    ASSERT_LT(result.kept.cellIds[i - 1], result.kept.cellIds[i]);
  }
}

TEST(Threshold, CellAssociatedFieldPath) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(4);
  Field f = Field::zeros("c", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) {
    f.setScalar(c, static_cast<double>(c));
  }
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(10.0, 20.0);
  const auto result = filter.run(ctx, g, "c");
  EXPECT_EQ(result.kept.numCells(), 11);
  EXPECT_EQ(result.kept.cellIds.front(), 10);
  EXPECT_EQ(result.kept.cellIds.back(), 20);
}

TEST(Threshold, BoundaryValuesAreInclusive) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(2);
  Field f = Field::zeros("c", Association::Cells, 1, g.numCells());
  for (Id c = 0; c < g.numCells(); ++c) f.setScalar(c, 1.0);
  g.addField(std::move(f));
  ThresholdFilter filter;
  filter.setRange(1.0, 1.0);
  EXPECT_EQ(filter.run(ctx, g, "c").kept.numCells(), g.numCells());
}

TEST(Threshold, RejectsInvertedRangeAndVectorField) {
  util::ExecutionContext ctx;
  ThresholdFilter filter;
  EXPECT_THROW(filter.setRange(2.0, 1.0), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  filter.setRange(0.0, 1.0);
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);
}

TEST(Threshold, ProfileHasThreePhasesPlusElements) {
  util::ExecutionContext ctx;
  const UniformGrid g = zGrid(6);
  ThresholdFilter filter;
  filter.setRange(0.0, 1.0);
  const auto result = filter.run(ctx, g, "z");
  EXPECT_EQ(result.profile.kernel, "threshold");
  EXPECT_EQ(result.profile.elements, g.numCells());
  EXPECT_EQ(result.profile.phases.size(), 3u);
}

// Property: for the linear field, kept count is monotone in the range
// width and complementary ranges partition the cells.
class ThresholdSplit : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSplit, ComplementaryRangesPartitionCells) {
  util::ExecutionContext ctx;
  const double split = GetParam();
  const UniformGrid g = zGrid(8);
  ThresholdFilter below;
  below.setRange(-1.0, split);
  ThresholdFilter above;
  above.setRange(std::nextafter(split, 2.0), 2.0);
  const Id nBelow = below.run(ctx, g, "z").kept.numCells();
  const Id nAbove = above.run(ctx, g, "z").kept.numCells();
  EXPECT_EQ(nBelow + nAbove, g.numCells());
}

INSTANTIATE_TEST_SUITE_P(Splits, ThresholdSplit,
                         ::testing::Values(0.1, 0.3, 0.4375, 0.5, 0.62, 0.9));

// Per-cell reference for the one select loop: a single hex whose corner c
// takes value `high` when bit c of the pattern is set and `low`
// otherwise, over all 256 patterns.  The cell value must be the
// left-to-right corner sum from a 0.0 seed divided by 8 — bit for bit,
// signed zeros included — and the cell is kept exactly when that value
// lies in [lo, hi].
struct TwoValueCase {
  const char* name;
  double low;
  double high;
  double lo;
  double hi;
};

constexpr TwoValueCase kTwoValueCases[] = {
    // Corners sit on both range ends: every average is in range, and the
    // all-low / all-high patterns land exactly on lo / hi.
    {"corners-on-range-ends", 0.25, 0.75, 0.25, 0.75},
    // Averages k/8 cross both ends; k = 2 and k = 6 hit lo and hi exactly.
    {"averages-hit-range-ends", 0.0, 1.0, 0.25, 0.75},
    // Signed zeros against a zero-width range at zero.
    {"signed-zeros", -0.0, 0.0, 0.0, 0.0},
    {"signed-zeros-negative-range", -0.0, 0.0, -0.0, -0.0},
    // Inexact decimals straddling a range whose ends are corner values.
    {"inexact-straddle", 0.1, 0.7, 0.1, 0.4},
    // Negative corners, range reachable only by mixed patterns.
    {"negative-mixed", -3.0, 5.0, -1.0, 1.0},
};

UniformGrid twoValueCell(int pattern, double low, double high,
                         double corner[8]) {
  UniformGrid g = UniformGrid::cube(1);
  Id pts[8];
  g.cellPointIds(Id3{0, 0, 0}, pts);
  Field f = Field::zeros("v", Association::Points, 1, g.numPoints());
  for (int c = 0; c < 8; ++c) {
    corner[c] = ((pattern >> c) & 1) != 0 ? high : low;
    f.setScalar(pts[c], corner[c]);
  }
  g.addField(std::move(f));
  return g;
}

TEST(ThresholdCell, EveryTwoValuePatternKeepsExactlyItsInRangeAverage) {
  for (exec::BackendKind backend :
         {exec::BackendKind::Serial, exec::BackendKind::Threaded}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      util::ThreadPool pool(workers);
      util::ExecutionContext ctx(pool);
      ctx.setBackend(backend);
      for (const TwoValueCase& tc : kTwoValueCases) {
        ThresholdFilter filter;
        filter.setRange(tc.lo, tc.hi);
        for (int pattern = 0; pattern < 256; ++pattern) {
          SCOPED_TRACE(std::string(exec::backendToken(backend)) + " pool " +
                       std::to_string(workers) + " " + tc.name +
                       " pattern=" + std::to_string(pattern));
          double c[8];
          const UniformGrid g = twoValueCell(pattern, tc.low, tc.high, c);
          const double expected =
              ((((((((0.0 + c[0]) + c[1]) + c[2]) + c[3]) + c[4]) + c[5]) +
                 c[6]) + c[7]) / 8.0;
          const bool inRange = expected >= tc.lo && expected <= tc.hi;
          const HexSubset kept = filter.run(ctx, g, "v").kept;
          ASSERT_EQ(kept.numCells(), inRange ? 1 : 0);
          if (!inRange) continue;
          EXPECT_EQ(kept.cellIds[0], 0);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(kept.cellScalars[0]),
                    std::bit_cast<std::uint64_t>(expected))
              << kept.cellScalars[0] << " vs " << expected;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pviz::vis
