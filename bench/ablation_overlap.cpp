// Ablation: the roofline overlap factor.
//
// DESIGN.md's timing model is T = max(Tc, Tm) + (1 - overlap) * min(...).
// This bench shows why the overlap term matters: with overlap forced to
// 1 (perfect hiding) the memory-bound class becomes completely
// insensitive to caps (too optimistic); with overlap 0 (no hiding) even
// contour degrades almost proportionally (too pessimistic).  The
// calibrated per-phase values sit between and reproduce the paper.
#include <iostream>

#include "bench_common.h"
#include "core/metrics.h"
#include "util/table.h"

using namespace pviz;

namespace {

vis::KernelProfile withOverlap(const vis::KernelProfile& kernel,
                               double overlap) {
  vis::KernelProfile out = kernel;
  if (overlap >= 0.0) {
    for (auto& phase : out.phases) phase.overlap = overlap;
  }
  return out;
}

}  // namespace

int main() {
  benchutil::printBanner(
      "Ablation — roofline overlap factor",
      "design choice behind the Table I/II timing model");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  core::Study study(config);
  util::ExecutionContext ctx;
  core::ExecutionSimulator simulator(config.machine, config.simulator);

  for (core::Algorithm algorithm :
       {core::Algorithm::Contour, core::Algorithm::VolumeRendering}) {
    const vis::KernelProfile& base =
        study.characterize(ctx, algorithm, size, config.params);
    std::cout << '\n'
              << core::algorithmName(algorithm)
              << " — Tratio under each cap, by overlap policy\n";
    util::TextTable table;
    {
      std::vector<std::string> header = {"overlap"};
      for (double cap : config.capsWatts) {
        header.push_back(util::formatFixed(cap, 0) + "W");
      }
      table.setHeader(std::move(header));
    }
    for (double overlap : {-1.0, 0.0, 0.5, 1.0}) {
      const vis::KernelProfile kernel = core::repeatKernel(
          withOverlap(base, overlap), config.cycles);
      core::Measurement baseline;
      std::vector<std::string> row = {
          overlap < 0.0 ? "calibrated" : util::formatFixed(overlap, 1)};
      for (std::size_t c = 0; c < config.capsWatts.size(); ++c) {
        const core::Measurement m =
            simulator.run(kernel, config.capsWatts[c]);
        if (c == 0) baseline = m;
        row.push_back(util::formatRatio(m.seconds / baseline.seconds));
      }
      table.addRow(std::move(row));
    }
    table.print(std::cout);
  }
  return 0;
}
