// DVFS governor: the package-firmware control loop that keeps measured
// power at or below the programmed RAPL cap by scaling the core
// frequency (and, below the minimum P-state, by duty cycling).
//
// Hardware RAPL re-evaluates on a short accounting window; the governor
// here supports that behaviour (stepwise mode, one adjustment per
// quantum) and an idealized mode that solves the power balance exactly
// (what the stepwise loop converges to).  The study runs stepwise; the
// tests assert both agree once settled.
//
// Each call probes the PowerCurve: stepToward once at the current
// frequency, solveFrequency up to 50 times.  Once settled, stepToward
// holds one frequency or alternates between two adjacent doubles (the
// proportional step rounds to within one ulp).  The ideal answer depends
// only on (curve, cap), so core::ExecutionSimulator solves it once per
// phase and memoizes the curve on the last two frequencies it evaluated.
#pragma once

#include <functional>

#include "arch/machine.h"

namespace pviz::power {

/// Package power as a function of core frequency (GHz) for the workload
/// currently executing; supplied by the cost model, strictly increasing.
using PowerCurve = std::function<double(double)>;

class DvfsGovernor {
 public:
  explicit DvfsGovernor(const arch::MachineDescription& machine)
      : machine_(machine), frequencyGhz_(machine.turboAllCoreGhz) {}

  /// Idealized solution: the highest frequency in
  /// [minEffectiveGhz, turboAllCoreGhz] whose power meets the cap
  /// (bisection; returns the floor if even that exceeds the cap).
  double solveFrequency(const PowerCurve& power, double capWatts) const;

  /// One stepwise control iteration: nudge the current frequency toward
  /// the cap based on the window-average power measured over the last
  /// quantum.  Returns the frequency to run next.
  double stepToward(const PowerCurve& power, double capWatts);

  double currentGhz() const { return frequencyGhz_; }
  void reset() { frequencyGhz_ = machine_.turboAllCoreGhz; }

 private:
  const arch::MachineDescription& machine_;
  double frequencyGhz_;
};

}  // namespace pviz::power
