// Golden output digests for spherical clip and isovolume.
//
// Pins FNV-1a-64 over the raw bytes of the tet piece mesh and the whole
// cell list, at the study's default parameters on the CloverLeaf proxy
// field: clip sphere at the bounds' center with radius 0.3 x the domain
// diagonal, and an isovolume band of [0.4, 0.8] of the energy range.
// Any change to tet order, vertex arithmetic or cell selection changes
// the digest; the values were recorded before clip and isovolume moved
// to count-then-fill output, which must reproduce them bit for bit.
// n = 75 gives 75-cell rows, so the classify sweep runs one full 64-lane
// block plus an 11-cell tail; the smaller sizes run the tail alone.
#include <gtest/gtest.h>

#include <string>

#include "golden_digest.h"
#include "sim/cloverleaf.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/isovolume.h"

namespace pviz::vis {
namespace {

using pviz::testing::Fnv1a64;

std::string digest(const TetMesh& pieces, const HexSubset& whole) {
  Fnv1a64 h;
  h.add(pieces.points);
  h.add(pieces.pointScalars);
  h.add(pieces.connectivity);
  h.add(whole.cellIds);
  h.add(whole.cellScalars);
  return h.hex();
}

ClipResult studyClip(util::ExecutionContext& ctx, const UniformGrid& g) {
  ClipSphereFilter filter;
  const Bounds box = g.bounds();
  filter.setSphere(box.center(), 0.3 * length(box.extent()));
  return filter.run(ctx, g, "energy").clipped;
}

IsovolumeFilter::Result studyIsovolume(util::ExecutionContext& ctx,
                                       const UniformGrid& g) {
  const auto [lo, hi] = g.field("energy").range(ctx);
  IsovolumeFilter filter;
  filter.setRange(lo + 0.4 * (hi - lo), lo + 0.8 * (hi - lo));
  return filter.run(ctx, g, "energy");
}

struct Golden {
  Id cells;
  const char* clip;
  const char* isovolume;
  Id lowClipTets;
};

class ClipGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ClipGolden, DigestsMatchOnEveryPoolSize) {
  const Golden& golden = GetParam();
  const UniformGrid g = sim::makeCloverField(golden.cells);
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    util::ThreadPool pool(workers);
    util::ExecutionContext ctx(pool);
    ctx.setBackend(exec::threadedBackend());
    const ClipResult clip = studyClip(ctx, g);
    EXPECT_EQ(digest(clip.cutPieces, clip.wholeCells), golden.clip);
    const auto iso = studyIsovolume(ctx, g);
    EXPECT_EQ(digest(iso.cutPieces, iso.wholeCells), golden.isovolume);
    EXPECT_EQ(iso.lowClipTets, golden.lowClipTets);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CloverField, ClipGolden,
    ::testing::Values(Golden{32, "43ae88fe038597b8", "776a2b9d89108c1b", 31764},
                      Golden{57, "34bf2a1f56eed50f", "10874057fe77e852",
                             101490},
                      Golden{75, "f1450d2a30ad108a", "d6e55dd4bae00ef1",
                             175950}),
    [](const ::testing::TestParamInfo<Golden>& param) {
      return "n" + std::to_string(param.param.cells);
    });

}  // namespace
}  // namespace pviz::vis
