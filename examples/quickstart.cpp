// Quickstart: characterize one visualization algorithm and sweep the
// processor power cap — the core loop of the whole study, in ~40 lines.
//
//   $ ./quickstart
//
// 1. Build a CloverLeaf-like dataset.
// 2. Run the contour filter for real (geometry comes back too).
// 3. Replay its measured workload on the modeled Broadwell package
//    under each RAPL cap and print the paper's headline metrics.
#include <iostream>

#include "core/execution_sim.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/table.h"
#include "viz/filters/contour.h"

int main() {
  using namespace pviz;

  // One execution context for everything below: the pool, backend,
  // scratch arena and cancel token every loop runs on.
  util::ExecutionContext ctx;

  // A 64^3 dataset shaped like an evolved CloverLeaf energy field.
  const vis::UniformGrid dataset = sim::makeCloverField(ctx, 64);

  // Extract 10 isosurfaces (the study's configuration).
  vis::ContourFilter contour;
  contour.setIsovalues(
      vis::ContourFilter::uniformIsovalues(dataset.field("energy"), 10));
  const vis::ContourFilter::Result result = contour.run(ctx, dataset, "energy");
  std::cout << "contour produced " << result.surface.numTriangles()
            << " triangles over 10 isovalues\n\n";

  // Replay the measured workload on the modeled power-capped package.
  core::ExecutionSimulator package;
  const vis::KernelProfile workload =
      core::scaleKernelWork(result.profile, 100.0);  // VTK-m-scale cost

  util::TextTable table;
  table.setHeader({"Cap(W)", "Time(s)", "EffGHz", "Power(W)", "IPC",
                   "LLC miss"});
  for (double cap : {120.0, 100.0, 80.0, 60.0, 40.0}) {
    const core::Measurement m = package.run(workload, cap);
    table.addRow({util::formatFixed(cap, 0),
                  util::formatFixed(m.seconds, 3),
                  util::formatFixed(m.effectiveGhz, 2),
                  util::formatFixed(m.averageWatts, 1),
                  util::formatFixed(m.ipc, 2),
                  util::formatFixed(m.llcMissRate, 3)});
  }
  table.print(std::cout);
  std::cout << "\ncontour is data intensive: cutting the cap 3X barely "
               "moves its runtime —\nthe power-opportunity class of "
               "Labasan et al., IPDPS'19\n";
  return 0;
}
