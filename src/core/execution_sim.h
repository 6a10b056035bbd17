// Execution simulator: runs a characterized kernel on the modeled
// Broadwell package under a RAPL power cap.
//
// This is the measurement loop of the study.  A kernel's WorkProfile
// phases (gathered while the real kernel executed on the host) are
// replayed on the package model in governor-quantum steps: each quantum
// the DVFS governor adjusts frequency against the programmed cap, the
// cost model converts the phase's work into progress, energy deposits
// into the (wrapping) RAPL counter, APERF/MPERF advance, and the power
// meter samples on its 100 ms cadence — the same observables the paper
// collects on hardware.
//
// Cost: the package model is evaluated about once per distinct (phase,
// frequency), not once per quantum.  A per-phase memo of the last two
// (frequency, PhaseCost) pairs serves both the governor's power probe
// and the quantum's own cost; a settled stepwise governor holds one
// frequency or alternates between two adjacent doubles, so it hits.  The
// ideal governor solves its frequency once per phase, before the quantum
// loop.  What remains per quantum is the bookkeeping (RAPL counters,
// meter, sampler).
#pragma once

#include <string>
#include <vector>

#include "arch/cost_model.h"
#include "power/governor.h"
#include "power/msr.h"
#include "power/power_meter.h"
#include "power/rapl.h"
#include "telemetry/power_sampler.h"

namespace pviz::util {
class CancelToken;
}  // namespace pviz::util

namespace pviz::core {

/// Per-phase slice of a measurement.
struct PhaseMeasurement {
  std::string name;
  double seconds = 0.0;
  double averageWatts = 0.0;
  double averageGhz = 0.0;
  double instructions = 0.0;
  double llcMisses = 0.0;
  double llcReferences = 0.0;
};

/// What the study records for one (kernel, cap) execution.
struct Measurement {
  double seconds = 0.0;
  double energyJoules = 0.0;
  double averageWatts = 0.0;     ///< energy / time
  double meteredWatts = 0.0;     ///< mean of the 100 ms meter samples
  double effectiveGhz = 0.0;     ///< APERF/MPERF × base clock
  double ipc = 0.0;              ///< INST_RET / CPU_CLK_UNHALT.REF_TSC
  double llcMissRate = 0.0;      ///< LONG_LAT_CACHE.MISS / .REF
  double elementsPerSecond = 0.0;  ///< Moreland–Oldfield rate
  std::vector<PhaseMeasurement> phases;
  std::vector<power::PowerMeter::Sample> powerTrace;
  /// Power/energy timeline on the meter cadence (telemetry::PowerSampler):
  /// per-sample watts, cumulative joules, and the active phase.  The last
  /// sample's joules equals energyJoules exactly.
  std::vector<telemetry::PowerSample> timeline;
};

struct SimulatorOptions {
  double governorQuantumSeconds = 0.005;  ///< firmware control cadence
  double meterIntervalSeconds = 0.1;      ///< study sampling cadence
  bool idealGovernor = false;  ///< solve the cap exactly each quantum
};

class ExecutionSimulator {
 public:
  explicit ExecutionSimulator(
      arch::MachineDescription machine =
          arch::MachineDescription::broadwellE52695v4(),
      SimulatorOptions options = {});

  /// Run `kernel` under `capWatts` (clamped to the machine's RAPL range).
  /// A non-null `cancel` token is polled at every phase boundary and
  /// periodically inside the governor-quantum loop; cancellation throws
  /// util::CancelledError and discards the partial measurement.
  /// Every run builds its own MSR file, governor and meter and mutates
  /// nothing else, so one simulator may run on several threads at once.
  Measurement run(const vis::KernelProfile& kernel, double capWatts,
                  util::CancelToken* cancel = nullptr) const;

  const arch::CostModel& costModel() const { return model_; }
  const arch::MachineDescription& machine() const { return model_.machine(); }

 private:
  arch::CostModel model_;
  SimulatorOptions options_;
};

/// A kernel profile repeated `cycles` times (the study runs several
/// visualization cycles per configuration).
vis::KernelProfile repeatKernel(const vis::KernelProfile& kernel, int cycles);

/// Every phase's work counts multiplied by `scale`.  The study uses this
/// to calibrate host-measured operation counts to VTK-m-scale cost (the
/// toolkit's per-element overheads are roughly two orders of magnitude
/// above a lean native kernel); intensive properties — IPC, draw,
/// ratios — are invariant, only absolute seconds change.
vis::KernelProfile scaleKernelWork(const vis::KernelProfile& kernel,
                                   double scale);

}  // namespace pviz::core
