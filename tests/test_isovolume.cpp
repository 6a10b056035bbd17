// Isovolume filter tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_common.h"
#include "viz/filters/isovolume.h"

namespace pviz::vis {
namespace {

UniformGrid xGrid(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("x", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Isovolume, BandVolumeOnLinearFieldIsExact) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(10);
  IsovolumeFilter filter;
  filter.setRange(0.23, 0.61);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 0.61 - 0.23, 1e-9);
  EXPECT_GT(result.cutPieces.numTets(), 0);    // both faces cut cells
  EXPECT_GT(result.wholeCells.numCells(), 0);  // interior slab kept whole
}

TEST(Isovolume, FullRangeKeepsUnitVolume) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(-1.0, 2.0);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 1.0, 1e-9);
  EXPECT_EQ(result.wholeCells.numCells(), g.numCells());
  EXPECT_EQ(result.cutPieces.numTets(), 0);
}

TEST(Isovolume, EmptyBandKeepsNothing) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(5.0, 6.0);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_NEAR(result.totalVolume(g), 0.0, 1e-12);
  EXPECT_EQ(result.wholeCells.numCells(), 0);
}

TEST(Isovolume, AdjacentBandsTileTheRange) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(8);
  IsovolumeFilter a;
  a.setRange(0.1, 0.5);
  IsovolumeFilter b;
  b.setRange(0.5, 0.9);
  IsovolumeFilter whole;
  whole.setRange(0.1, 0.9);
  const double va = a.run(ctx, g, "x").totalVolume(g);
  const double vb = b.run(ctx, g, "x").totalVolume(g);
  const double vw = whole.run(ctx, g, "x").totalVolume(g);
  EXPECT_NEAR(va + vb, vw, 1e-9);
}

TEST(Isovolume, CarriedScalarsStayInsideBand) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(9);
  IsovolumeFilter filter;
  filter.setRange(0.3, 0.7);
  const auto result = filter.run(ctx, g, "x");
  for (double s : result.cutPieces.pointScalars) {
    ASSERT_GE(s, 0.3 - 1e-9);
    ASSERT_LE(s, 0.7 + 1e-9);
  }
  // And geometrically: x coordinates must lie inside the band since the
  // field is x itself.
  for (const auto& p : result.cutPieces.points) {
    ASSERT_GE(p.x, 0.3 - 1e-9);
    ASSERT_LE(p.x, 0.7 + 1e-9);
  }
}

TEST(Isovolume, WholeCellsLieStrictlyInsideBand) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(8);
  IsovolumeFilter filter;
  filter.setRange(0.25, 0.75);
  const auto result = filter.run(ctx, g, "x");
  const Field& f = g.field("x");
  for (Id c : result.wholeCells.cellIds) {
    Id pts[8];
    g.cellPointIds(g.cellIjk(c), pts);
    for (int k = 0; k < 8; ++k) {
      ASSERT_GE(f.value(pts[k]), 0.25 - 1e-12);
      ASSERT_LE(f.value(pts[k]), 0.75 + 1e-12);
    }
  }
}

TEST(Isovolume, RejectsBadInput) {
  util::ExecutionContext ctx;
  IsovolumeFilter filter;
  EXPECT_THROW(filter.setRange(1.0, 0.0), Error);
  UniformGrid g = UniformGrid::cube(2);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  filter.setRange(0.0, 1.0);
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);
}

TEST(Isovolume, ProfileHasFourPhases) {
  util::ExecutionContext ctx;
  const UniformGrid g = xGrid(6);
  IsovolumeFilter filter;
  filter.setRange(0.2, 0.8);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_EQ(result.profile.kernel, "isovolume");
  EXPECT_EQ(result.profile.phases.size(), 4u);
  EXPECT_EQ(result.profile.elements, g.numCells());
}

// Property: band volume equals band width for any sub-interval of the
// unit range on a linear field.
class IsovolumeBand
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(IsovolumeBand, VolumeEqualsWidth) {
  util::ExecutionContext ctx;
  const auto [lo, hi] = GetParam();
  const UniformGrid g = xGrid(9);
  IsovolumeFilter filter;
  filter.setRange(lo, hi);
  EXPECT_NEAR(filter.run(ctx, g, "x").totalVolume(g), hi - lo, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, IsovolumeBand,
    ::testing::Values(std::pair{0.0, 0.3}, std::pair{0.111, 0.888},
                      std::pair{0.45, 0.55}, std::pair{0.5, 1.0},
                      std::pair{0.333, 0.667}, std::pair{0.05, 0.95}));

double signedVolume(const Vec3& a, const Vec3& b, const Vec3& c,
                    const Vec3& d) {
  return dot(cross(b - a, c - a), d - a) / 6.0;
}

// Linear interpolant of `values` over tet `t` at `p`; false when `p`
// lies outside the tet.
bool tetInterpolant(const Vec3 t[4], const double values[4], const Vec3& p,
                    double& out) {
  const double whole = signedVolume(t[0], t[1], t[2], t[3]);
  const double w[4] = {signedVolume(p, t[1], t[2], t[3]) / whole,
                       signedVolume(t[0], p, t[2], t[3]) / whole,
                       signedVolume(t[0], t[1], p, t[3]) / whole,
                       signedVolume(t[0], t[1], t[2], p) / whole};
  out = 0.0;
  for (int i = 0; i < 4; ++i) {
    if (w[i] < -1e-9) return false;
    out += w[i] * values[i];
  }
  return true;
}

// Exhaustive single-cell fixture: each corner of one hex lies below,
// inside or above the band, for all 3^8 patterns.  The band volume plus
// the volumes of f < lo and f > hi is the cell volume, and the carried
// field re-interpolates on the second (hi) clip: every cut vertex's
// scalar lies in the band and equals the linear interpolant of f over
// the decomposition tet that contains it.
TEST(IsovolumeCell, EveryBelowInsideAbovePatternTilesTheCell) {
  constexpr double lo = 0.3;
  constexpr double hi = 0.7;
  util::ThreadPool pool(1);
  util::ExecutionContext ctx(pool);
  IsovolumeFilter filter;
  filter.setRange(lo, hi);
  const auto decomposition = hexTetDecomposition();
  for (int code = 0; code < 6561; ++code) {
    SCOPED_TRACE("pattern=" + std::to_string(code));
    UniformGrid g = UniformGrid::cube(1);
    Vec3 pos[8];
    Id pts[8];
    hexCellCorners(g, 0, pos, pts);
    Field field = Field::zeros("f", Association::Points, 1, g.numPoints());
    double corner[8];
    for (int c = 0, digits = code; c < 8; ++c, digits /= 3) {
      const double offset = 0.05 + 0.02 * c;
      switch (digits % 3) {
        case 0: corner[c] = lo - offset; break;
        case 1: corner[c] = lo + (hi - lo) * (c + 1) / 10.0; break;
        default: corner[c] = hi + offset; break;
      }
      field.setScalar(pts[c], corner[c]);
    }
    g.addField(std::move(field));
    const util::Buffer<double>& f = g.field("f").data();
    std::vector<double> belowLo(8);
    std::vector<double> aboveHi(8);
    for (std::size_t p = 0; p < 8; ++p) {
      belowLo[p] = lo - f[p];
      aboveHi[p] = f[p] - hi;
    }

    const auto band = filter.run(ctx, g, "f");
    const ClipResult under = clipUniformGrid(ctx, g, belowLo, f);
    const ClipResult over = clipUniformGrid(ctx, g, aboveHi, f);
    auto volume = [](const ClipResult& r) {
      return static_cast<double>(r.wholeCells.numCells()) +
             r.cutPieces.totalVolume();
    };
    ASSERT_NEAR(band.totalVolume(g) + volume(under) + volume(over), 1.0,
                1e-12);
    ASSERT_LE(band.lowClipTets, band.cutPieces.numTets());

    for (Id v = 0; v < band.cutPieces.numPoints(); ++v) {
      const Vec3& p = band.cutPieces.points[static_cast<std::size_t>(v)];
      const double s = band.cutPieces.pointScalars[static_cast<std::size_t>(v)];
      ASSERT_GE(s, lo - 1e-12);
      ASSERT_LE(s, hi + 1e-12);
      bool located = false;
      for (int t = 0; t < 6 && !located; ++t) {
        const int* ids = decomposition[t];
        const Vec3 tet[4] = {pos[ids[0]], pos[ids[1]], pos[ids[2]],
                             pos[ids[3]]};
        const double values[4] = {corner[ids[0]], corner[ids[1]],
                                  corner[ids[2]], corner[ids[3]]};
        double expected = 0.0;
        if (tetInterpolant(tet, values, p, expected)) {
          located = true;
          ASSERT_NEAR(s, expected, 1e-9);
        }
      }
      ASSERT_TRUE(located);
    }
  }
}

}  // namespace
}  // namespace pviz::vis
