// Histogram filter — bin counts over a scalar field, plus the
// quantile-based isovalue selection visualization tools build on it.
#pragma once

#include <vector>

#include "viz/dataset/field.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

struct Histogram {
  double lo = 0.0;         ///< range covered by the bins
  double hi = 0.0;
  std::vector<std::int64_t> bins;

  std::int64_t totalCount() const {
    std::int64_t total = 0;
    for (auto c : bins) total += c;
    return total;
  }

  double binWidth() const {
    return bins.empty() ? 0.0
                        : (hi - lo) / static_cast<double>(bins.size());
  }

  /// Value below which fraction `q` of the samples fall (piecewise-
  /// constant inverse CDF over the bins), q in [0, 1].
  double quantile(double q) const;
};

class HistogramFilter {
 public:
  struct Result {
    Histogram histogram;
    KernelProfile profile;
  };

  void setBinCount(int bins) {
    PVIZ_REQUIRE(bins >= 1, "need at least one bin");
    bins_ = bins;
  }
  int binCount() const { return bins_; }

  /// Histogram of the field's first component over its full range.
  Result run(util::ExecutionContext& ctx, const Field& field) const;

 private:
  int bins_ = 64;
};

}  // namespace pviz::vis
