// Threshold filter — keep cells whose field value lies inside a range.
//
// Follows the paper's description: iterate over every cell, compare the
// cell's value (point fields are averaged to the cell) against the
// range, and copy qualifying cells to the output.
#pragma once

#include <string>

#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class ThresholdFilter {
 public:
  struct Result {
    HexSubset kept;
    KernelProfile profile;
  };

  void setRange(double lo, double hi) {
    PVIZ_REQUIRE(lo <= hi, "threshold range must satisfy lo <= hi");
    lo_ = lo;
    hi_ = hi;
  }
  double rangeLo() const { return lo_; }
  double rangeHi() const { return hi_; }

  /// Select cells of `grid` whose `fieldName` value falls in [lo, hi].
  /// Point fields are averaged over the cell's eight corners first.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
};

}  // namespace pviz::vis
