// Tightly-coupled in situ pipeline: simulation and visualization
// alternate on the same resources (the paper's Ascent + CloverLeaf
// configuration), each side running under its own power cap on the
// modeled package.
//
// This is the setting the study's findings target: a runtime that knows
// visualization is power-insensitive can cap the viz phase low and give
// the simulation the headroom (see power_advisor.h).
#pragma once

#include <vector>

#include "core/algorithms.h"
#include "core/execution_sim.h"
#include "sim/cloverleaf.h"

namespace pviz::core {

struct PipelineConfig {
  vis::Id cellsPerAxis = 32;
  int simStepsPerCycle = 10;   ///< hydro steps between visualizations
  int cycles = 5;              ///< visualization cycles
  std::vector<Algorithm> algorithms = {Algorithm::Contour};
  AlgorithmParams params = AlgorithmParams::lightRendering();
  double simCapWatts = 120.0;  ///< cap while the simulation runs
  double vizCapWatts = 120.0;  ///< cap while visualization runs
  /// Host-to-VTK-m work calibration (see scaleKernelWork).
  double workScale = 100.0;
  arch::MachineDescription machine =
      arch::MachineDescription::broadwellE52695v4();
  SimulatorOptions simulator;
};

struct CycleReport {
  int cycle = 0;
  double simSeconds = 0.0;
  double simWatts = 0.0;
  double vizSeconds = 0.0;
  double vizWatts = 0.0;
};

struct PipelineReport {
  std::vector<CycleReport> cycles;
  double totalSeconds = 0.0;
  double totalEnergyJoules = 0.0;
  double vizFraction = 0.0;  ///< viz share of total time (paper: 10-20%)

  double averageWatts() const {
    return totalSeconds > 0.0 ? totalEnergyJoules / totalSeconds : 0.0;
  }
};

/// Run the coupled pipeline: `simStepsPerCycle` hydro steps, then each
/// configured algorithm on the exported dataset, `cycles` times.
/// One execution context (pool + arena) is shared across every cycle,
/// so visualization scratch is reused rather than reallocated per cycle.
PipelineReport runInSituPipeline(util::ExecutionContext& ctx,
                                 const PipelineConfig& config);

}  // namespace pviz::core
