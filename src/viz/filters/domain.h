// Multi-block filter runners: execute a configured filter per block on
// the owned views of a MultiBlockGrid and stitch the per-block outputs
// back into the exact global ordering.
//
// Every runner is bit-identical to running the same filter on the
// global grid, for every block count, ghost depth, backend, and pool
// size.  The argument rests on three facts (DESIGN §13 spells them
// out):
//
//   1. k-slab decomposition means block b's local cell order IS the
//      global cell order restricted to cells [c0*CI*CJ, c1*CI*CJ) — so
//      per-block outputs concatenate in block order.
//   2. Owned views carry the global indexOffset, so geometry
//      (pointPosition) and field fetches are bitwise-equal to the
//      global run's; per-cell kernels do identical arithmetic.
//   3. Where the global output order is not plain cell order the filter
//      exposes a layout marker: contour is pass-major
//      (Result::passTriangles → interleaved (pass, block) gather) and
//      isovolume's cutPieces is two segments (Result::lowClipTets →
//      every block's lo-cut tets, then every block's hi-cut tets).
//
// Filters whose traversal is inherently global (particle advection —
// trajectories cross seams) run on stitchGlobal(), which reproduces the
// input grid bitwise, so their invariance is inherited rather than
// stitched.
#pragma once

#include "viz/dataset/multi_block.h"
#include "viz/filters/clip_sphere.h"
#include "viz/filters/contour.h"
#include "viz/filters/isovolume.h"
#include "viz/filters/particle_advection.h"
#include "viz/filters/slice.h"
#include "viz/filters/threshold.h"

namespace pviz::vis {

ContourFilter::Result runContour(util::ExecutionContext& ctx,
                                 MultiBlockGrid& domain,
                                 const ContourFilter& filter,
                                 const std::string& fieldName);

ThresholdFilter::Result runThreshold(util::ExecutionContext& ctx,
                                     MultiBlockGrid& domain,
                                     const ThresholdFilter& filter,
                                     const std::string& fieldName);

ClipSphereFilter::Result runClipSphere(util::ExecutionContext& ctx,
                                       MultiBlockGrid& domain,
                                       const ClipSphereFilter& filter,
                                       const std::string& fieldName);

IsovolumeFilter::Result runIsovolume(util::ExecutionContext& ctx,
                                     MultiBlockGrid& domain,
                                     const IsovolumeFilter& filter,
                                     const std::string& fieldName);

SliceFilter::Result runSlice(util::ExecutionContext& ctx,
                             MultiBlockGrid& domain,
                             const SliceFilter& filter,
                             const std::string& fieldName);

/// Streamline advection over the stitched global grid (bitwise-equal to
/// the partition input); a distributed per-block traversal with
/// particle migration is the documented follow-on.
ParticleAdvectionFilter::Result runParticleAdvection(
    util::ExecutionContext& ctx, MultiBlockGrid& domain,
    const ParticleAdvectionFilter& filter, const std::string& fieldName);

/// Analytic work profile of the ghost-exchange copies, from the real
/// byte/plane counts of the last exchangeGhosts() pass.
WorkProfile ghostExchangePhase(const MultiBlockGrid::CopyStats& stats);

/// Analytic work profile for moving `bytes` of per-block output (or
/// gathered grid data) through the stitch.
WorkProfile blockStitchPhase(double bytes);

}  // namespace pviz::vis
