// Isovolume — keep the region where a scalar field lies within a range.
//
// Per the paper: like clip, but the implicit function is a scalar range.
// Cells entirely inside [lo, hi] pass whole; cells entirely outside are
// dropped; straddling cells are subdivided.  One pass classifies every
// cell against both ends: a cell straddling lo is clipped at f >= lo and
// each piece re-clipped at f <= hi; a cell whole under lo but straddling
// hi is clipped at f <= hi alone.
#pragma once

#include <string>

#include "viz/filters/clip_common.h"
#include "viz/worklet/work_profile.h"

namespace pviz::vis {

class IsovolumeFilter {
 public:
  struct Result {
    HexSubset wholeCells;  ///< cells entirely inside the range
    TetMesh cutPieces;     ///< subdivided boundary region
    /// cutPieces layout marker: the first `lowClipTets` tets come from
    /// the cells straddling lo, the rest from cells whole under lo that
    /// straddle hi; each segment is in ascending cell order.  The
    /// multi-block stitch needs this split to reproduce the global
    /// two-segment order.
    Id lowClipTets = 0;
    KernelProfile profile;

    double totalVolume(const UniformGrid& grid) const {
      const Vec3 s = grid.spacing();
      return static_cast<double>(wholeCells.numCells()) * s.x * s.y * s.z +
             cutPieces.totalVolume();
    }
  };

  void setRange(double lo, double hi) {
    PVIZ_REQUIRE(lo <= hi, "isovolume range must satisfy lo <= hi");
    lo_ = lo;
    hi_ = hi;
  }
  double rangeLo() const { return lo_; }
  double rangeHi() const { return hi_; }

  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
};

}  // namespace pviz::vis
