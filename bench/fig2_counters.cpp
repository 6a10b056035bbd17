// Figure 2 (a, b, c): effective CPU frequency, instructions per cycle,
// and last-level-cache miss rate for all eight algorithms as the
// processor power cap drops from 120 W to 40 W at 128^3.
//
// Also prints the §VI-B observable the figures rest on: each algorithm's
// natural (uncapped) power draw.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Fig. 2 — frequency / IPC / LLC miss rate vs. processor power cap",
      "Labasan et al., IPDPS'19, Fig. 2a-2c (data set size 128^3)");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 128);
  core::Study study(config);
  util::ExecutionContext ctx;

  const auto& algorithms = core::allAlgorithms();
  std::vector<std::vector<core::ConfigRecord>> sweeps;
  sweeps.reserve(algorithms.size());
  for (core::Algorithm algorithm : algorithms) {
    sweeps.push_back(study.capSweep(ctx, algorithm, size, config.capsWatts,
                                    config.cycles));
  }

  auto printSeries = [&](const std::string& title, auto&& metric,
                         int decimals) {
    std::cout << '\n' << title << '\n';
    util::TextTable table;
    std::vector<std::string> header = {"Cap(W)"};
    for (core::Algorithm algorithm : algorithms) {
      header.push_back(core::algorithmName(algorithm));
    }
    table.setHeader(std::move(header));
    for (std::size_t c = 0; c < config.capsWatts.size(); ++c) {
      std::vector<std::string> row = {
          util::formatFixed(config.capsWatts[c], 0)};
      for (std::size_t a = 0; a < sweeps.size(); ++a) {
        row.push_back(util::formatFixed(metric(sweeps[a][c].measurement),
                                        decimals));
      }
      table.addRow(std::move(row));
    }
    table.print(std::cout);
  };

  printSeries("Fig. 2a — Effective frequency (GHz)",
              [](const core::Measurement& m) { return m.effectiveGhz; }, 2);
  printSeries("Fig. 2b — Instructions per cycle (IPC)",
              [](const core::Measurement& m) { return m.ipc; }, 2);
  printSeries("Fig. 2c — Last level cache miss rate",
              [](const core::Measurement& m) { return m.llcMissRate; }, 3);

  std::cout << "\n§VI-B — natural power draw at the default cap (paper: "
               "55 W to 90 W per processor)\n";
  util::TextTable draw;
  draw.setHeader({"Algorithm", "Draw(W)", "EffGHz", "IPC", "Class"});
  for (std::size_t a = 0; a < sweeps.size(); ++a) {
    const core::Measurement& m = sweeps[a].front().measurement;
    draw.addRow({core::algorithmName(algorithms[a]),
                 util::formatFixed(m.averageWatts, 1),
                 util::formatFixed(m.effectiveGhz, 2),
                 util::formatFixed(m.ipc, 2),
                 m.ipc > 1.0 ? "compute-bound" : "memory-bound"});
  }
  draw.print(std::cout);
  return 0;
}
