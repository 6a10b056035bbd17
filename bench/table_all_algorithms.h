// Shared implementation of Tables II and III: Tratio and Fratio for all
// eight algorithms across the cap sweep at one dataset size, with the
// paper's first->=10%-slowdown highlight.
#pragma once

#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"
#include "util/table.h"

namespace pviz::benchutil {

inline int runAllAlgorithmsTable(vis::Id size) {
  core::StudyConfig config = defaultStudyConfig();
  core::Study study(config);
  util::ExecutionContext ctx;

  util::TextTable table;
  {
    std::vector<std::string> header = {"Algorithm", "Ratio"};
    for (double cap : config.capsWatts) {
      header.push_back(util::formatFixed(cap, 0) + "W");
    }
    table.setHeader(std::move(header));
  }
  {
    std::vector<std::string> row = {"", "Pratio"};
    for (double cap : config.capsWatts) {
      row.push_back(util::formatRatio(config.capsWatts.front() / cap));
    }
    table.addRow(std::move(row));
  }

  for (core::Algorithm algorithm : core::allAlgorithms()) {
    const auto sweep = study.capSweep(ctx, algorithm, size, config.capsWatts,
                                      config.cycles);
    std::vector<double> tRatios, fRatios;
    for (const auto& r : sweep) {
      tRatios.push_back(r.ratios.tRatio);
      fRatios.push_back(r.ratios.fRatio);
    }
    const int tKnee = core::firstSlowdownIndex(tRatios);
    const int fKnee = core::firstSlowdownIndex(fRatios);

    std::vector<std::string> tRow = {core::algorithmName(algorithm),
                                     "Tratio"};
    std::vector<std::string> fRow = {"", "Fratio"};
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      tRow.push_back(util::formatRatio(tRatios[i],
                                       tKnee == static_cast<int>(i)));
      fRow.push_back(util::formatRatio(fRatios[i],
                                       fKnee == static_cast<int>(i)));
    }
    table.addRow(std::move(tRow));
    table.addRow(std::move(fRow));
  }
  table.print(std::cout);
  std::cout << "\n'*' marks the first cap with a >=10% degradation (the "
               "paper's red highlight)\n";
  return 0;
}

}  // namespace pviz::benchutil
