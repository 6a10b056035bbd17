#include "core/execution_sim.h"

#include <algorithm>
#include <limits>

#include "util/exec_context.h"

namespace pviz::core {

ExecutionSimulator::ExecutionSimulator(arch::MachineDescription machine,
                                       SimulatorOptions options)
    : model_(std::move(machine)), options_(options) {
  PVIZ_REQUIRE(options_.governorQuantumSeconds > 0.0,
               "governor quantum must be positive");
  PVIZ_REQUIRE(options_.meterIntervalSeconds > 0.0,
               "meter interval must be positive");
}

Measurement ExecutionSimulator::run(const vis::KernelProfile& kernel,
                                    double capWatts,
                                    util::CancelToken* cancel) const {
  const arch::MachineDescription& m = machine();
  capWatts = std::clamp(capWatts, m.minCapWatts, m.tdpWatts);

  power::MsrFile msr;
  power::RaplDomain rapl(msr);
  rapl.setPowerCapWatts(capWatts);
  const double cap = rapl.powerCapWatts();  // as programmed (unit-rounded)

  power::DvfsGovernor governor(m);
  power::PowerMeter meter(rapl, options_.meterIntervalSeconds);
  meter.start(0.0);
  const auto freq0 = rapl.readFrequencyCounters();

  Measurement out;
  double simTime = 0.0;
  double weightedGhz = 0.0;
  double totalJoules = 0.0;
  telemetry::PowerSampler sampler(options_.meterIntervalSeconds);

  // Quanta between cancellation polls inside a phase: a long phase at a
  // 5 ms quantum polls every ~5 simulated seconds, cheap and responsive.
  constexpr int kCancelPollQuanta = 1024;
  int quantaSincePoll = 0;

  for (const vis::WorkProfile& phase : kernel.phases) {
    if (cancel != nullptr) cancel->throwIfCancelled();
    sampler.beginPhase(phase.name);
    // phaseCost is pure, so a remembered (frequency, cost) pair answers
    // both the governor's power probe and the quantum's own cost.  Two
    // entries, most recent first: a settled stepwise governor either
    // holds one frequency or alternates between two adjacent doubles (the
    // controller's floating-point limit cycle), so either way it
    // evaluates the model a few times per phase, not once per quantum.
    constexpr double kNoGhz = std::numeric_limits<double>::quiet_NaN();
    double memoGhz[2] = {kNoGhz, kNoGhz};
    arch::PhaseCost memoCost[2];
    int newest = 0;
    const auto costAt = [&](double fGhz) -> const arch::PhaseCost& {
      if (memoGhz[newest] != fGhz) {
        newest ^= 1;
        if (memoGhz[newest] != fGhz) {
          memoCost[newest] = model_.phaseCost(phase, fGhz);
          memoGhz[newest] = fGhz;
        }
      }
      return memoCost[newest];
    };
    const power::PowerCurve curve = [&](double fGhz) {
      return costAt(fGhz).powerWatts;
    };
    // The ideal operating point depends only on (phase, cap).
    const double idealGhz =
        options_.idealGovernor ? governor.solveFrequency(curve, cap) : 0.0;

    PhaseMeasurement pm;
    pm.name = phase.name;
    double phaseEnergy = 0.0;
    double phaseGhzWeighted = 0.0;
    double remaining = 1.0;  // fraction of the phase left

    while (remaining > 1e-12) {
      if (cancel != nullptr && ++quantaSincePoll >= kCancelPollQuanta) {
        quantaSincePoll = 0;
        cancel->throwIfCancelled();
      }
      const double fGhz = options_.idealGovernor
                              ? idealGhz
                              : governor.stepToward(curve, cap);
      const arch::PhaseCost& cost = costAt(fGhz);
      const double timeToFinish = remaining * cost.seconds;
      const double dt =
          std::min(options_.governorQuantumSeconds, timeToFinish);
      const double fractionDone = dt / cost.seconds;

      rapl.depositEnergy(cost.powerWatts * dt);
      rapl.tickFrequencyCounters(dt, fGhz, m.baseGhz);
      simTime += dt;
      totalJoules += cost.powerWatts * dt;
      meter.advanceTo(simTime);
      sampler.advanceTo(simTime, totalJoules);

      pm.seconds += dt;
      phaseEnergy += cost.powerWatts * dt;
      phaseGhzWeighted += fGhz * dt;
      pm.instructions += cost.instructions * fractionDone;
      pm.llcMisses += cost.llcMisses * fractionDone;
      pm.llcReferences += cost.llcReferences * fractionDone;
      remaining -= fractionDone;
    }

    pm.averageWatts = pm.seconds > 0.0 ? phaseEnergy / pm.seconds : 0.0;
    pm.averageGhz = pm.seconds > 0.0 ? phaseGhzWeighted / pm.seconds : 0.0;
    weightedGhz += phaseGhzWeighted;

    out.seconds += pm.seconds;
    out.energyJoules += phaseEnergy;
    out.phases.push_back(std::move(pm));
  }

  const auto freq1 = rapl.readFrequencyCounters();
  out.effectiveGhz = power::RaplDomain::effectiveGhz(freq0, freq1, m.baseGhz);
  out.averageWatts = out.seconds > 0.0 ? out.energyJoules / out.seconds : 0.0;
  out.meteredWatts = meter.stats().count() > 0 ? meter.stats().mean()
                                               : out.averageWatts;
  out.powerTrace = meter.samples();
  out.timeline = sampler.finish();

  double instructions = 0.0;
  double misses = 0.0;
  double refs = 0.0;
  for (const auto& pm : out.phases) {
    instructions += pm.instructions;
    misses += pm.llcMisses;
    refs += pm.llcReferences;
  }
  out.ipc = model_.referenceIpc(instructions, out.seconds);
  out.llcMissRate = refs > 0.0 ? misses / refs : 0.0;
  out.elementsPerSecond =
      out.seconds > 0.0
          ? static_cast<double>(kernel.elements) / out.seconds
          : 0.0;
  return out;
}

vis::KernelProfile scaleKernelWork(const vis::KernelProfile& kernel,
                                   double scale) {
  PVIZ_REQUIRE(scale > 0.0, "work scale must be positive");
  vis::KernelProfile out = kernel;
  for (auto& phase : out.phases) phase.scaleWork(scale);
  return out;
}

vis::KernelProfile repeatKernel(const vis::KernelProfile& kernel,
                                int cycles) {
  PVIZ_REQUIRE(cycles >= 1, "cycle count must be >= 1");
  vis::KernelProfile out;
  out.kernel = kernel.kernel;
  out.elements = kernel.elements * cycles;
  out.phases.reserve(kernel.phases.size() * static_cast<std::size_t>(cycles));
  for (int c = 0; c < cycles; ++c) {
    out.phases.insert(out.phases.end(), kernel.phases.begin(),
                      kernel.phases.end());
  }
  return out;
}

}  // namespace pviz::core
