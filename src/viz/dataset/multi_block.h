// Multi-block domain: a regular decomposition of one global UniformGrid
// into k-slabs, each a UniformGrid window plus an N-cell ghost layer,
// with a deterministic ghost-exchange pass and a per-block -> global
// stitch.
//
// Decomposition is along k only (the slowest axis), so flat cell ids —
// which are i-fastest, k-slowest — stay contiguous per block:
// block b owns the global cell planes [c0, c1) with c0 = b*CK/B, and
// concatenating per-block outputs in block order reproduces the global
// cell order exactly.  That is the backbone of the bit-identical stitch
// the filter layer (viz/filters/domain.h) builds on top.
//
// Ownership is exclusive: point plane k belongs to the block whose
// owned cell range contains it (the last block additionally owns the
// k = CK closing plane).  partition() fills ONLY owned planes of each
// block's ghosted window; every other plane — including the top plane a
// block's own cells need — arrives via exchangeGhosts().  The exchange
// is therefore functionally load-bearing, not an optimization, which is
// what the golden tests pin: skip it and every filter output changes.
//
// Determinism argument (the short version; DESIGN §13 has the full
// one): exchange and stitch are pure copies of disjoint destination
// ranges, so their output is independent of execution order; block
// grids carry an indexOffset so point positions are computed from the
// *global* lattice index with the exact arithmetic of the global grid;
// and domain-level point sampling locates on the global skeleton grid
// before fetching through the owner block, sidestepping the one
// operation (block-local locateCell) that is not bit-exact near seams.
#pragma once

#include <string>
#include <vector>

#include "util/exec_context.h"
#include "viz/dataset/uniform_grid.h"

namespace pviz::vis {

class MultiBlockGrid {
 public:
  struct Block {
    Id globalCellBegin = 0;  ///< c0: first owned global cell plane (k).
    Id globalCellEnd = 0;    ///< c1: one past the last owned cell plane.
    Id ghostCellBegin = 0;   ///< gc0 = max(c0 - ghostLayers, 0).
    Id ghostCellEnd = 0;     ///< gc1 = min(c1 + ghostLayers, CK).
    /// Window over cell planes [gc0, gc1); owned planes filled at
    /// partition, ghost planes filled by exchangeGhosts().
    UniformGrid ghosted;
    /// Window over exactly the owned cell planes [c0, c1), materialized
    /// by exchangeGhosts(); filters run on this view.
    UniformGrid owned;

    Id ownedCells() const { return globalCellEnd - globalCellBegin; }
  };

  struct CopyStats {
    double bytes = 0;  ///< field payload bytes moved
    Id planes = 0;     ///< distinct (block, field, plane-range) copies
  };

  MultiBlockGrid() = default;

  /// Decompose `global` into min(blockCount, cellDims().k) k-slabs with
  /// `ghostLayers` >= 1 ghost cell planes per side (clamped at the
  /// domain boundary).
  static MultiBlockGrid partition(const UniformGrid& global, Id blockCount,
                                  Id ghostLayers);

  Id numBlocks() const { return static_cast<Id>(blocks_.size()); }
  Id ghostLayers() const { return ghostLayers_; }
  bool exchanged() const { return exchanged_; }
  const std::vector<Block>& blocks() const { return blocks_; }
  const Block& block(Id b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }
  /// Field-less grid with the global extent; bounds()/locateCell() on it
  /// are bitwise-identical to the original global grid's.
  const UniformGrid& skeleton() const { return skeleton_; }

  /// Fill every ghost plane from its owning block and materialize the
  /// per-block owned views.  Pure copies of disjoint ranges — the result
  /// is identical on every backend and pool size.
  CopyStats exchangeGhosts(util::ExecutionContext& ctx);
  const CopyStats& lastExchange() const { return lastExchange_; }

  /// Gather the owned views back into one global grid; bitwise-equal to
  /// the grid partition() was given.  Requires exchangeGhosts().
  UniformGrid stitchGlobal(util::ExecutionContext& ctx);
  const CopyStats& lastStitch() const { return lastStitch_; }

  /// Index of the block owning global cell plane `k` (0 <= k < CK).
  Id ownerOfCellPlane(Id k) const;

  /// Trilinear point-field sampling routed through the owner block:
  /// locate on the global skeleton, evaluate on the owner's owned view.
  /// Bitwise-identical to UniformGrid::sampleScalar on the global grid.
  bool sampleScalar(const std::string& fieldName, const Vec3& p,
                    double& out) const;
  bool sampleVector(const std::string& fieldName, const Vec3& p,
                    Vec3& out) const;

  /// Total field payload bytes across all owned views (traffic model
  /// input for the stitch phase).
  double ownedFieldBytes() const;

 private:
  UniformGrid skeleton_;
  struct FieldInfo {
    std::string name;
    Association assoc = Association::Points;
    int components = 1;
  };
  std::vector<FieldInfo> fieldInfo_;
  std::vector<Block> blocks_;
  std::vector<Id> starts_;  ///< c0 per block, for owner lookup
  Id ghostLayers_ = 1;
  bool exchanged_ = false;
  CopyStats lastExchange_;
  CopyStats lastStitch_;
};

}  // namespace pviz::vis
