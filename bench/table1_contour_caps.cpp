// Table I: slowdown for the contour algorithm (10 isovalues, 128^3) as
// the processor power cap is reduced from 120 W (TDP) to 40 W.
//
// Columns match the paper: P, Pratio, T, Tratio, F, Fratio.  A '*'
// marks the first >=10% slowdown (the paper prints it in red) — the
// paper sees it only at the lowest cap, 40 W.
#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Table I — contour slowdown vs. processor power cap (128^3)",
      "Labasan et al., IPDPS'19, Table I");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  core::Study study(config);
  util::ExecutionContext ctx;
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 128);
  const auto sweep = study.capSweep(ctx, core::Algorithm::Contour, size,
                                   config.capsWatts, config.cycles);

  std::vector<double> tRatios;
  tRatios.reserve(sweep.size());
  for (const auto& record : sweep) tRatios.push_back(record.ratios.tRatio);
  const int knee = core::firstSlowdownIndex(tRatios);

  util::TextTable table;
  table.setHeader({"P", "Pratio", "T", "Tratio", "F", "Fratio"});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    table.addRow({util::formatFixed(r.capWatts, 0) + "W",
                  util::formatRatio(r.ratios.pRatio),
                  util::formatFixed(r.measurement.seconds, 3) + "s",
                  util::formatRatio(r.ratios.tRatio,
                                    knee == static_cast<int>(i)),
                  util::formatFixed(r.measurement.effectiveGhz, 2) + "GHz",
                  util::formatRatio(r.ratios.fRatio)});
  }
  table.print(std::cout);

  std::cout << "\npaper shape: Tratio stays ~1.0X until the lowest cap; at "
               "40W the paper measured Tratio 1.17X / Fratio 1.23X\n"
            << "(a data-intensive algorithm avoids slowing down "
               "proportionally to a "
            << util::formatRatio(sweep.back().ratios.pRatio)
            << " power reduction)\n";
  return 0;
}
