// Tetrahedron clipping and spherical clip tests.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_common.h"
#include "viz/filters/clip_sphere.h"

namespace pviz::vis {
namespace {

constexpr double kPi = 3.14159265358979323846;

const Vec3 kUnitTet[4] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
constexpr double kUnitTetVolume = 1.0 / 6.0;

double clippedVolume(const Vec3 pos[4], const double clip[4]) {
  TetMesh out;
  const double carry[4] = {0, 0, 0, 0};
  clipTetrahedron(pos, clip, carry, out);
  return out.totalVolume();
}

TEST(ClipTetrahedron, AllInKeepsWholeTet) {
  const double clip[4] = {1, 1, 1, 1};
  EXPECT_NEAR(clippedVolume(kUnitTet, clip), kUnitTetVolume, 1e-12);
}

TEST(ClipTetrahedron, AllOutKeepsNothing) {
  const double clip[4] = {-1, -1, -1, -1};
  TetMesh out;
  const double carry[4] = {0, 0, 0, 0};
  clipTetrahedron(kUnitTet, clip, carry, out);
  EXPECT_EQ(out.numTets(), 0);
  EXPECT_EQ(out.numPoints(), 0);
}

TEST(ClipTetrahedron, HalfSpaceThroughMiddle) {
  // Clip x >= 0.5 off the unit tet: kept volume (x < 0.5 side is LOST
  // here since keep means clip >= 0; use s = x - 0.5 => keeps the tip).
  const double clip[4] = {kUnitTet[0].x - 0.5, kUnitTet[1].x - 0.5,
                          kUnitTet[2].x - 0.5, kUnitTet[3].x - 0.5};
  // The tip beyond x=0.5 is a scaled copy: volume scales by 0.5^3.
  EXPECT_NEAR(clippedVolume(kUnitTet, clip), kUnitTetVolume * 0.125, 1e-12);
}

TEST(ClipTetrahedron, ThreeKeptIsComplementOfOneKept) {
  const double keepTip[4] = {-0.25, -0.25, -0.25, 0.75};   // keep corner 3
  const double dropTip[4] = {0.25, 0.25, 0.25, -0.75};     // drop corner 3
  const double vTip = clippedVolume(kUnitTet, keepTip);
  const double vRest = clippedVolume(kUnitTet, dropTip);
  EXPECT_NEAR(vTip + vRest, kUnitTetVolume, 1e-12);
  EXPECT_GT(vTip, 0.0);
  EXPECT_GT(vRest, vTip);  // the prism side is bigger for this plane
}

TEST(ClipTetrahedron, CarriedScalarInterpolatesLinearly) {
  // Carry x; clip at x >= 0.25.  Every emitted vertex's carried value
  // must equal its reconstructed x coordinate.
  const double clip[4] = {-0.25, 0.75, -0.25, -0.25};
  const double carry[4] = {0, 1, 0, 0};  // equals x at the corners
  TetMesh out;
  clipTetrahedron(kUnitTet, clip, carry, out);
  ASSERT_GT(out.numPoints(), 0);
  for (Id p = 0; p < out.numPoints(); ++p) {
    ASSERT_NEAR(out.pointScalars[static_cast<std::size_t>(p)],
                out.points[static_cast<std::size_t>(p)].x, 1e-12);
  }
}

// Volume-partition property over random tets and random planes: the two
// half-space clips must exactly tile the tetrahedron.
class ClipPartition : public ::testing::TestWithParam<int> {};

TEST_P(ClipPartition, KeepPlusDropEqualsWhole) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    Vec3 pos[4];
    for (auto& p : pos) {
      p = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    const double whole =
        std::abs(dot(cross(pos[1] - pos[0], pos[2] - pos[0]),
                     pos[3] - pos[0])) / 6.0;
    if (whole < 1e-6) continue;  // degenerate random tet
    double clip[4];
    double inverse[4];
    const Vec3 n{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const double d = rng.uniform(-0.5, 0.5);
    for (int i = 0; i < 4; ++i) {
      clip[i] = dot(pos[i], n) - d;
      inverse[i] = -clip[i];
    }
    const double kept = clippedVolume(pos, clip);
    const double dropped = clippedVolume(pos, inverse);
    ASSERT_NEAR(kept + dropped, whole, whole * 1e-9 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClipPartition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(HexDecomposition, SixTetsTileTheCell) {
  const Vec3 corners[8] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
                           {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}};
  const auto tets = hexTetDecomposition();
  double volume = 0.0;
  for (int t = 0; t < 6; ++t) {
    const Vec3& a = corners[tets[t][0]];
    const Vec3& b = corners[tets[t][1]];
    const Vec3& c = corners[tets[t][2]];
    const Vec3& d = corners[tets[t][3]];
    const double v = dot(cross(b - a, c - a), d - a) / 6.0;
    EXPECT_GT(v, 0.0) << "tet " << t << " is inverted";
    volume += v;
  }
  EXPECT_NEAR(volume, 1.0, 1e-12);
}

UniformGrid gridWithField(Id cells) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("x", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    f.setScalar(p, g.pointPosition(p).x);
  }
  g.addField(std::move(f));
  return g;
}

TEST(ClipUniformGrid, PlaneClipVolumeIsExact) {
  util::ExecutionContext ctx;
  const Id n = 8;
  const UniformGrid g = gridWithField(n);
  // Keep x >= 0.4 (a plane between cell boundaries).
  std::vector<double> clip(static_cast<std::size_t>(g.numPoints()));
  for (Id p = 0; p < g.numPoints(); ++p) {
    clip[static_cast<std::size_t>(p)] = g.pointPosition(p).x - 0.4;
  }
  const ClipResult result =
      clipUniformGrid(ctx, g, clip, g.field("x").data());
  const double cellVol = 1.0 / (n * n * n);
  const double total =
      static_cast<double>(result.wholeCells.numCells()) * cellVol +
      result.cutPieces.totalVolume();
  EXPECT_NEAR(total, 0.6, 1e-9);
  EXPECT_EQ(result.cellsIn + result.cellsOut + result.cellsCut, g.numCells());
  EXPECT_GT(result.cellsCut, 0);
}

TEST(ClipUniformGrid, ClassifiesCountsConsistently) {
  util::ExecutionContext ctx;
  const UniformGrid g = gridWithField(6);
  std::vector<double> clip(static_cast<std::size_t>(g.numPoints()), 1.0);
  const ClipResult all = clipUniformGrid(ctx, g, clip, g.field("x").data());
  EXPECT_EQ(all.cellsIn, g.numCells());
  EXPECT_EQ(all.cutPieces.numTets(), 0);
  std::fill(clip.begin(), clip.end(), -1.0);
  const ClipResult none = clipUniformGrid(ctx, g, clip, g.field("x").data());
  EXPECT_EQ(none.cellsOut, g.numCells());
  EXPECT_EQ(none.wholeCells.numCells(), 0);
}

TEST(ClipSphere, CulledVolumeMatchesSphereVolume) {
  util::ExecutionContext ctx;
  const Id n = 24;
  UniformGrid g = gridWithField(n);
  ClipSphereFilter filter;
  const double r = 0.3;
  filter.setSphere({0.5, 0.5, 0.5}, r);
  const auto result = filter.run(ctx, g, "x");
  const double cellVol = 1.0 / (static_cast<double>(n) * n * n);
  const double kept =
      static_cast<double>(result.clipped.wholeCells.numCells()) * cellVol +
      result.clipped.cutPieces.totalVolume();
  const double expected = 1.0 - 4.0 / 3.0 * kPi * r * r * r;
  EXPECT_NEAR(kept, expected, 0.01 * expected);
}

TEST(ClipSphere, SphereOutsideDomainKeepsEverything) {
  util::ExecutionContext ctx;
  UniformGrid g = gridWithField(5);
  ClipSphereFilter filter;
  filter.setSphere({10, 10, 10}, 0.5);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_EQ(result.clipped.cellsIn, g.numCells());
  EXPECT_EQ(result.clipped.cellsCut, 0);
}

TEST(ClipSphere, ProfileAndParamValidation) {
  util::ExecutionContext ctx;
  UniformGrid g = gridWithField(5);
  ClipSphereFilter filter;
  EXPECT_THROW(filter.setSphere({0, 0, 0}, -1.0), Error);
  filter.setSphere({0.5, 0.5, 0.5}, 0.25);
  const auto result = filter.run(ctx, g, "x");
  EXPECT_EQ(result.profile.kernel, "spherical-clip");
  EXPECT_EQ(result.profile.phases.size(), 4u);
  EXPECT_EQ(result.profile.elements, g.numCells());
}

// Exhaustive single-cell fixture: for each of the 256 corner-sign
// patterns of one hex (nonzero values, a distinct magnitude per corner),
// the volume kept under s plus the volume kept under -s is the cell, and
// the count pass's per-cell prediction equals the tets emitted.
TEST(ClipHexCell, EveryCornerSignPatternTilesTheCell) {
  util::ThreadPool pool(1);
  util::ExecutionContext ctx(pool);
  const UniformGrid g = gridWithField(1);
  Id pts[8];
  g.cellPointIds(Id3{0, 0, 0}, pts);
  const util::Buffer<double>& carried = g.field("x").data();
  const double cellVolume = 1.0;
  for (int pattern = 0; pattern < 256; ++pattern) {
    SCOPED_TRACE("pattern=" + std::to_string(pattern));
    double corner[8];
    double inverse[8];
    std::vector<double> clip(8);
    std::vector<double> flipped(8);
    for (int c = 0; c < 8; ++c) {
      const double magnitude = 0.15 + 0.1 * c;
      corner[c] = ((pattern >> c) & 1) != 0 ? magnitude : -magnitude;
      inverse[c] = -corner[c];
      clip[static_cast<std::size_t>(pts[c])] = corner[c];
      flipped[static_cast<std::size_t>(pts[c])] = inverse[c];
    }
    const ClipResult kept = clipUniformGrid(ctx, g, clip, carried);
    const ClipResult dropped = clipUniformGrid(ctx, g, flipped, carried);
    auto volume = [&](const ClipResult& r) {
      return static_cast<double>(r.wholeCells.numCells()) * cellVolume +
             r.cutPieces.totalVolume();
    };
    EXPECT_NEAR(volume(kept) + volume(dropped), cellVolume, 1e-12);

    const bool cut = pattern != 0 && pattern != 255;
    EXPECT_EQ(kept.cellsCut, cut ? 1 : 0);
    EXPECT_EQ(kept.cutPieces.numTets(), cut ? clippedHexTetCount(corner) : 0);
    EXPECT_EQ(dropped.cutPieces.numTets(),
              cut ? clippedHexTetCount(inverse) : 0);

    // The slot writer emits exactly the predicted count, with the
    // carried field (x) interpolated linearly onto every vertex.
    Vec3 pos[8];
    hexCellCorners(g, 0, pos, pts);
    double carry[8];
    for (int c = 0; c < 8; ++c) carry[c] = pos[c].x;
    Vec3 points[4 * kMaxHexClipTets];
    double scalars[4 * kMaxHexClipTets];
    const int tets = clipHexCell(pos, corner, carry, points, scalars);
    EXPECT_EQ(tets, clippedHexTetCount(corner));
    for (int v = 0; v < 4 * tets; ++v) {
      EXPECT_NEAR(scalars[v], points[v].x, 1e-12);
    }
  }
}

}  // namespace
}  // namespace pviz::vis
