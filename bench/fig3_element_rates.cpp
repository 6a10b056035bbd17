// Figure 3: elements processed per second (the Moreland–Oldfield rate,
// n / T(n,p)) for the cell-centered algorithms at 128^3 as the cap drops.
//
// Paper shape: near-constant rates across most caps (the denominator
// only grows once the cap actually bites), with a decline at severe
// caps; faster algorithms sit higher.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

int main() {
  benchutil::printBanner(
      "Fig. 3 — elements/second, cell-centered algorithms (128^3)",
      "Labasan et al., IPDPS'19, Fig. 3");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 128);
  core::Study study(config);
  util::ExecutionContext ctx;

  // The paper compares only the algorithms whose rate is meaningful in
  // input cells: the cell-centered set.
  const std::vector<core::Algorithm> cellCentered = {
      core::Algorithm::Contour, core::Algorithm::Isovolume,
      core::Algorithm::Slice, core::Algorithm::SphericalClip,
      core::Algorithm::Threshold};

  util::TextTable table;
  {
    std::vector<std::string> header = {"Cap(W)"};
    for (core::Algorithm algorithm : cellCentered) {
      header.push_back(core::algorithmName(algorithm));
    }
    table.setHeader(std::move(header));
  }

  std::vector<std::vector<core::ConfigRecord>> sweeps;
  for (core::Algorithm algorithm : cellCentered) {
    sweeps.push_back(study.capSweep(ctx, algorithm, size, config.capsWatts,
                                    config.cycles));
  }
  for (std::size_t c = 0; c < config.capsWatts.size(); ++c) {
    std::vector<std::string> row = {
        util::formatFixed(config.capsWatts[c], 0)};
    for (const auto& sweep : sweeps) {
      row.push_back(util::formatFixed(
          sweep[c].measurement.elementsPerSecond / 1e6, 1));
    }
    table.addRow(std::move(row));
  }
  std::cout << "\nElements (millions) per second\n";
  table.print(std::cout);
  std::cout << "\npaper shape: flat lines over most caps, dipping at "
               "severe caps; threshold fastest, isovolume slowest\n";
  return 0;
}
