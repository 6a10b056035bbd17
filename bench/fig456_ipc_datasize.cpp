// Figures 4, 5, 6: IPC vs processor power cap, one series per dataset
// size (32^3 .. 256^3).
//
//   Fig. 4 — slice (and the other cell-centered algorithms): IPC GROWS
//            with dataset size (framework overhead amortizes away).
//   Fig. 5 — volume rendering: IPC FALLS as the dataset outgrows the
//            shared cache.
//   Fig. 6 — particle advection (and ray tracing): IPC is insensitive
//            to dataset size (fixed seeds/steps; compact working set).
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

namespace {

void printFigure(core::Study& study, util::ExecutionContext& ctx,
                 const std::string& title,
                 core::Algorithm algorithm,
                 const std::vector<vis::Id>& sizes) {
  std::cout << '\n' << title << " — " << core::algorithmName(algorithm)
            << ", IPC by dataset size\n";
  util::TextTable table;
  {
    std::vector<std::string> header = {"Cap(W)"};
    for (vis::Id size : sizes) {
      header.push_back(std::to_string(size) + "^3");
    }
    table.setHeader(std::move(header));
  }
  const core::StudyConfig& config = study.config();
  const auto& caps = config.capsWatts;
  std::vector<std::vector<core::ConfigRecord>> sweeps;
  for (vis::Id size : sizes) {
    sweeps.push_back(study.capSweep(ctx, algorithm, size, caps, config.cycles));
  }
  for (std::size_t c = 0; c < caps.size(); ++c) {
    std::vector<std::string> row = {util::formatFixed(caps[c], 0)};
    for (const auto& sweep : sweeps) {
      row.push_back(util::formatFixed(sweep[c].measurement.ipc, 2));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  benchutil::printBanner(
      "Figs. 4-6 — IPC vs cap across dataset sizes",
      "Labasan et al., IPDPS'19, Figs. 4, 5, 6");

  core::StudyConfig config = benchutil::defaultStudyConfig();
  core::Study study(config);
  util::ExecutionContext ctx;
  const std::vector<vis::Id> sizes = config.sizes;  // 32..256

  printFigure(study, ctx, "Fig. 4 (IPC grows with size)",
              core::Algorithm::Slice, sizes);
  printFigure(study, ctx, "Fig. 5 (IPC falls with size)",
              core::Algorithm::VolumeRendering, sizes);
  printFigure(study, ctx, "Fig. 6 (IPC size-invariant)",
              core::Algorithm::ParticleAdvection, sizes);
  printFigure(study, ctx, "Fig. 6 companion (also size-invariant)",
              core::Algorithm::RayTracing, sizes);
  return 0;
}
