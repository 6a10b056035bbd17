// Flow workload characterization: particle advection swept over seed
// counts spanning three orders of magnitude (10^3 .. 10^6), under every
// power cap.
//
// Two questions, two tables:
//
//   1. IPC vs particle count — the paper's Fig. 6 finding is that
//      advection IPC is insensitive to *dataset* size; this sweep asks
//      the same question about *particle* count.  The working set is
//      particles × a few cache lines, so IPC should hold until the
//      particle pool itself outgrows the shared cache.
//
//   2. Power knee vs cap — per particle count, the cap at which the
//      modeled runtime first degrades by 10% (the paper's red-highlight
//      rule).  Advection is arithmetic-dense, so the knee sits high:
//      there is little memory slack to hide a frequency drop in.
//
// Knobs: PVIZ_SIZE (grid size, default 64), PVIZ_ADVECT_STEPS (max
// integration steps, default 100), PVIZ_CYCLES, PVIZ_CACHE/PVIZ_NOCACHE
// as usual.  One Study serves every seed count: its memo and the
// on-disk profile cache are keyed on the params, seed and step counts
// included.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pviz;

namespace {

const std::vector<vis::Id> kParticleCounts = {1000, 10000, 100000, 1000000};

std::string countLabel(vis::Id count) {
  if (count % 1000000 == 0) return std::to_string(count / 1000000) + "M";
  if (count % 1000 == 0) return std::to_string(count / 1000) + "k";
  return std::to_string(count);
}

}  // namespace

int main() {
  benchutil::printBanner(
      "Flow workload — advection vs particle count and power cap",
      "Labasan et al., IPDPS'19, §V-C (advection workload)");

  const vis::Id size = benchutil::envInt("PVIZ_SIZE", 64);
  const vis::Id maxSteps = benchutil::envInt("PVIZ_ADVECT_STEPS", 100);

  // One study for every particle count: the characterization memo and
  // the disk cache are keyed on the params, seedCount included, so each
  // count characterizes once over the one shared size^3 dataset.
  core::StudyConfig config = benchutil::defaultStudyConfig();
  config.params.maxSteps = maxSteps;
  core::Study study(config);
  util::ExecutionContext ctx;
  const std::vector<double>& caps = config.capsWatts;

  std::vector<std::vector<core::ConfigRecord>> sweeps;
  for (vis::Id count : kParticleCounts) {
    core::AlgorithmParams params = config.params;
    params.seedCount = count;
    sweeps.push_back(study.capSweep(ctx, core::Algorithm::ParticleAdvection,
                                    size, caps, config.cycles, params));
  }

  std::cout << "\nIPC by particle count (" << size << "^3 grid, "
            << maxSteps << " max steps)\n";
  util::TextTable ipc;
  {
    std::vector<std::string> header = {"Cap(W)"};
    for (vis::Id count : kParticleCounts) header.push_back(countLabel(count));
    ipc.setHeader(std::move(header));
  }
  for (std::size_t c = 0; c < caps.size(); ++c) {
    std::vector<std::string> row = {util::formatFixed(caps[c], 0)};
    for (const auto& sweep : sweeps) {
      row.push_back(util::formatFixed(sweep[c].measurement.ipc, 2));
    }
    ipc.addRow(std::move(row));
  }
  ipc.print(std::cout);

  std::cout << "\nPower knee by particle count (first cap with Tratio >= "
               "1.1; '-' = none)\n";
  util::TextTable knee;
  knee.setHeader({"Particles", "Knee cap(W)", "T@default(s)", "T@40W(s)",
                  "Tratio@40W", "Pratio@40W"});
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const auto& sweep = sweeps[s];
    std::vector<double> tRatios;
    for (const auto& record : sweep) tRatios.push_back(record.ratios.tRatio);
    const int kneeIdx = core::firstSlowdownIndex(tRatios);
    const auto& last = sweep.back();
    knee.addRow({countLabel(kParticleCounts[s]),
                 kneeIdx >= 0 ? util::formatFixed(caps[kneeIdx], 0) : "-",
                 util::formatFixed(sweep.front().measurement.seconds, 3),
                 util::formatFixed(last.measurement.seconds, 3),
                 util::formatFixed(last.ratios.tRatio, 2),
                 util::formatFixed(last.ratios.pRatio, 2)});
  }
  knee.print(std::cout);
  return 0;
}
