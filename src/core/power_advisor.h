// Power advisor — the runtime the paper's findings feed (§VII): classify
// a workload as power-opportunity or power-sensitive from its modeled
// cap response, and split a node power budget between a simulation and a
// visualization phase so overall throughput is maximized.
//
// Classification: sweep the caps on the package model and find the knee
// (the first cap with a >=10% slowdown).  A workload whose knee sits at
// or below `opportunityCapWatts` (default 60 W, half of TDP) is a power
// opportunity: it can run under a low cap without losing performance.
//
// Budgeting: the two phases time-share the package, so the binding
// constraint is the *time-weighted average* power of the job.  The
// advisor caps the visualization phase at its knee (performance-neutral
// by construction) and gives the simulation whatever average headroom
// that frees — mirroring the paper's "allocate most of the power to the
// power-hungry simulation, leaving minimal power to the visualization".
//
// Cost: under the idealized governor each simulator run solves the
// frequency once per phase, so a run costs one bisection per phase plus
// the quantum bookkeeping.  classify and planBudget are const and touch
// no shared state.
#pragma once

#include <string>
#include <vector>

#include "core/execution_sim.h"

namespace pviz::core {

struct Classification {
  bool powerOpportunity = false;
  double kneeCapWatts = 0.0;   ///< lowest cap with <10% slowdown
  double drawAtTdpWatts = 0.0; ///< natural draw, uncapped
  double slowdownAtMinCap = 1.0;
  double ipcAtTdp = 0.0;
};

struct BudgetPlan {
  Classification classification;  ///< of the visualization kernel
  double simCapWatts = 0.0;
  double vizCapWatts = 0.0;
  double predictedSeconds = 0.0;       ///< advised plan, per cycle
  double uniformSeconds = 0.0;         ///< naive equal-cap baseline
  double predictedAverageWatts = 0.0;  ///< of the advised plan
  double speedupVsUniform = 1.0;
};

class PowerAdvisor {
 public:
  /// The advisor is a planning tool: it defaults to the idealized
  /// governor (steady-state power balance), which is what a runtime
  /// would compute from a model rather than waiting out transients.
  explicit PowerAdvisor(
      arch::MachineDescription machine =
          arch::MachineDescription::broadwellE52695v4(),
      SimulatorOptions options = {.governorQuantumSeconds = 0.005,
                                  .meterIntervalSeconds = 0.1,
                                  .idealGovernor = true});

  /// Classify a characterized kernel by sweeping `capsWatts`
  /// (default-first ordering, e.g. the study's 120..40).
  Classification classify(const vis::KernelProfile& kernel,
                          const std::vector<double>& capsWatts = {
                              120, 110, 100, 90, 80, 70, 60, 50, 40}) const;

  /// Split an average power budget between a simulation kernel and a
  /// visualization kernel that alternate on the package.  The plan
  /// carries the classify(vizKernel) it derives the viz knee from.  The
  /// search models each candidate simulation cap once, however many viz
  /// caps pair with it.
  BudgetPlan planBudget(const vis::KernelProfile& simKernel,
                        const vis::KernelProfile& vizKernel,
                        double averageBudgetWatts) const;

  double opportunityCapWatts = 60.0;
  double slowdownThreshold = 1.1;

 private:
  ExecutionSimulator simulator_;
};

}  // namespace pviz::core
