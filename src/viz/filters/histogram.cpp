#include "viz/filters/histogram.h"

#include <algorithm>
#include <mutex>

#include "util/exec_context.h"
#include "util/parallel.h"

namespace pviz::vis {

double Histogram::quantile(double q) const {
  PVIZ_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q outside [0, 1]");
  const std::int64_t total = totalCount();
  if (total == 0 || bins.empty()) return lo;
  const double target = q * static_cast<double>(total);
  double running = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const double next = running + static_cast<double>(bins[b]);
    if (next >= target) {
      const double frac =
          bins[b] > 0
              ? (target - running) / static_cast<double>(bins[b])
              : 0.0;
      return lo + binWidth() * (static_cast<double>(b) + frac);
    }
    running = next;
  }
  return hi;
}

HistogramFilter::Result HistogramFilter::run(util::ExecutionContext& ctx,
                                             const Field& field) const {
  Result result;
  Histogram& h = result.histogram;
  const auto [lo, hi] = field.range();
  h.lo = lo;
  h.hi = hi;
  h.bins.assign(static_cast<std::size_t>(bins_), 0);

  const double width = hi > lo ? (hi - lo) / bins_ : 1.0;
  const util::Buffer<double>& data = field.data();
  const auto stride = static_cast<std::size_t>(field.components());

  auto binningPhase = ctx.phase("binning");
  std::mutex mergeMutex;
  util::parallelForChunks(ctx, 0, field.count(), [&](Id begin, Id end) {
    std::vector<std::int64_t> local(static_cast<std::size_t>(bins_), 0);
    for (Id i = begin; i < end; ++i) {
      const double v = data[static_cast<std::size_t>(i) * stride];
      auto bin = static_cast<std::int64_t>((v - lo) / width);
      bin = std::clamp<std::int64_t>(bin, 0, bins_ - 1);
      ++local[static_cast<std::size_t>(bin)];
    }
    std::lock_guard lock(mergeMutex);
    for (std::size_t b = 0; b < local.size(); ++b) h.bins[b] += local[b];
  });

  result.profile.kernel = "histogram";
  result.profile.elements = field.count();
  const double n = static_cast<double>(field.count());
  WorkProfile& binning = result.profile.addPhase("binning");
  binning.flops = n * 3;
  binning.intOps = n * 8;
  binning.memOps = n * 3;
  binning.bytesStreamed = field.sizeBytes();
  binning.bytesReused = n * 2;  // bin increments (cache resident)
  binning.parallelFraction = 0.99;
  binning.overlap = 0.92;
  return result;
}

}  // namespace pviz::vis
