// Integration test: the paper's headline findings emerge from the full
// stack (real kernels -> profiles -> package model -> measurements) at a
// reduced dataset size.
//
// These assertions encode the *shape* of Labasan et al.'s results:
//   1. Two classes: particle advection and volume rendering draw high
//      power and are power sensitive; the other six draw less and
//      tolerate much lower caps.
//   2. Tratio <= Pratio for every algorithm (power can be cut faster
//      than performance degrades).
//   3. IPC separates the classes (compute-bound > 1 > memory-bound for
//      the extremes).
//   4. Particle advection's IPC is insensitive to dataset size; the
//      cell-centered algorithms' IPC grows with dataset size.
#include <gtest/gtest.h>

#include <map>

#include "core/study.h"
#include "util/exec_context.h"

namespace pviz::core {
namespace {

class PaperShape : public ::testing::Test {
 protected:
  static Study& study() {
    static Study instance = [] {
      StudyConfig config;
      config.sizes = {16, 48};
      config.cycles = 8;  // long enough that governor transients wash out
      config.params = AlgorithmParams::lightRendering();
      config.params.cameraCount = 12;
      config.params.sampledCameraCount = 4;
      config.params.imageWidth = 256;   // enough render work that the
      config.params.imageHeight = 256;  // kernels dominate the overhead
      config.params.seedCount = 1000;
      config.params.maxSteps = 500;
      return Study(config);
    }();
    return instance;
  }

  static util::ExecutionContext& ctx() {
    static util::ExecutionContext instance;
    return instance;
  }

  static const std::vector<ConfigRecord>& sweep(Algorithm algorithm) {
    static std::map<int, std::vector<ConfigRecord>> cache;
    auto [it, fresh] = cache.try_emplace(static_cast<int>(algorithm));
    if (fresh) {
      const StudyConfig& config = study().config();
      it->second = study().capSweep(ctx(), algorithm, 48, config.capsWatts,
                                    config.cycles);
    }
    return it->second;
  }

  /// IPC at the default cap: a one-cap sweep.
  static double ipcAtTdp(Algorithm algorithm, vis::Id size) {
    return study()
        .capSweep(ctx(), algorithm, size, {120.0}, study().config().cycles)
        .front()
        .measurement.ipc;
  }

  static const Measurement& at(Algorithm algorithm, double cap) {
    for (const auto& record : sweep(algorithm)) {
      if (record.capWatts == cap) return record.measurement;
    }
    throw Error("cap not in study");
  }
};

TEST_F(PaperShape, PowerSensitivePairDrawsTheMostPower) {
  const double pa =
      at(Algorithm::ParticleAdvection, 120).averageWatts;
  const double vr = at(Algorithm::VolumeRendering, 120).averageWatts;
  for (Algorithm algorithm :
       {Algorithm::Contour, Algorithm::Threshold, Algorithm::SphericalClip,
        Algorithm::Isovolume, Algorithm::Slice, Algorithm::RayTracing}) {
    const double draw = at(algorithm, 120).averageWatts;
    EXPECT_GT(pa, draw + 4.0) << algorithmName(algorithm);
    EXPECT_GT(vr, draw + 4.0) << algorithmName(algorithm);
  }
}

TEST_F(PaperShape, DrawsLandInThePaperBand) {
  for (Algorithm algorithm : allAlgorithms()) {
    const double draw = at(algorithm, 120).averageWatts;
    EXPECT_GT(draw, 40.0) << algorithmName(algorithm);
    EXPECT_LT(draw, 100.0) << algorithmName(algorithm);
  }
}

TEST_F(PaperShape, AllAlgorithmsRunAtTurboUncapped) {
  for (Algorithm algorithm : allAlgorithms()) {
    EXPECT_NEAR(at(algorithm, 120).effectiveGhz, 2.6, 0.02)
        << algorithmName(algorithm);
  }
}

TEST_F(PaperShape, PowerSensitiveKneesAreHighPowerOpportunityKneesLow) {
  // PA and VR degrade >=10% by 70 W; contour and threshold hold out
  // until at least 50 W.
  auto tratioAt = [&](Algorithm algorithm, double cap) {
    for (const auto& record : sweep(algorithm)) {
      if (record.capWatts == cap) return record.ratios.tRatio;
    }
    return 0.0;
  };
  EXPECT_GE(tratioAt(Algorithm::ParticleAdvection, 70), 1.1);
  EXPECT_GE(tratioAt(Algorithm::VolumeRendering, 70), 1.1);
  EXPECT_LT(tratioAt(Algorithm::Contour, 60), 1.1);
  EXPECT_LT(tratioAt(Algorithm::Threshold, 60), 1.1);
  EXPECT_LT(tratioAt(Algorithm::RayTracing, 70), 1.1);
}

TEST_F(PaperShape, TratioNeverExceedsPratio) {
  for (Algorithm algorithm : allAlgorithms()) {
    for (const auto& record : sweep(algorithm)) {
      const double pRatio = 120.0 / record.capWatts;
      ASSERT_LE(record.ratios.tRatio, pRatio * 1.05)
          << algorithmName(algorithm) << " at " << record.capWatts << "W";
    }
  }
}

TEST_F(PaperShape, TratioIsMonotoneInTheCap) {
  for (Algorithm algorithm : allAlgorithms()) {
    double last = 0.0;
    for (const auto& record : sweep(algorithm)) {
      ASSERT_GE(record.ratios.tRatio, last - 0.02)
          << algorithmName(algorithm) << " at " << record.capWatts << "W";
      last = std::max(last, record.ratios.tRatio);
    }
  }
}

TEST_F(PaperShape, IpcSeparatesTheClasses) {
  const double vr = at(Algorithm::VolumeRendering, 120).ipc;
  const double pa = at(Algorithm::ParticleAdvection, 120).ipc;
  const double contour = at(Algorithm::Contour, 120).ipc;
  const double threshold = at(Algorithm::Threshold, 120).ipc;
  EXPECT_GT(vr, 1.5);
  EXPECT_GT(pa, 1.3);
  EXPECT_LT(contour, 1.0);
  EXPECT_LT(threshold, 1.0);
  // The compute-bound pair tops the IPC ranking (the paper has volume
  // rendering highest with advection close behind; at this reduced test
  // configuration the two can swap within a few percent).
  for (Algorithm algorithm : allAlgorithms()) {
    EXPECT_LE(at(algorithm, 120).ipc, std::max(vr, pa) + 1e-9)
        << algorithmName(algorithm);
  }
}

TEST_F(PaperShape, ComputeBoundPairHasTheLowestMissRates) {
  const double vr = at(Algorithm::VolumeRendering, 120).llcMissRate;
  const double contour = at(Algorithm::Contour, 120).llcMissRate;
  const double isovolume = at(Algorithm::Isovolume, 120).llcMissRate;
  EXPECT_LT(vr, contour);
  EXPECT_LT(vr, isovolume);
}

TEST_F(PaperShape, MeasuredIpcFallsUnderDeepCapsViaRefCycles) {
  // REF_TSC-denominated IPC drops when a cap stretches execution time
  // (the paper's Fig. 2b behaviour for the compute-bound pair).
  const double free = at(Algorithm::VolumeRendering, 120).ipc;
  const double capped = at(Algorithm::VolumeRendering, 40).ipc;
  EXPECT_LT(capped, free * 0.75);
}

TEST_F(PaperShape, AdvectionIpcIsSizeInvariantCellCentricIpcGrows) {
  const double pa16 = ipcAtTdp(Algorithm::ParticleAdvection, 16);
  const double pa48 = ipcAtTdp(Algorithm::ParticleAdvection, 48);
  EXPECT_NEAR(pa16, pa48, 0.35 * std::max(pa16, pa48));  // Fig. 6

  const double contour16 = ipcAtTdp(Algorithm::Contour, 16);
  const double contour48 = ipcAtTdp(Algorithm::Contour, 48);
  EXPECT_GT(contour48, contour16 * 1.1);  // Fig. 4 trend

  const double slice16 = ipcAtTdp(Algorithm::Slice, 16);
  const double slice48 = ipcAtTdp(Algorithm::Slice, 48);
  EXPECT_GT(slice48, slice16);  // Fig. 4
}

TEST_F(PaperShape, ElementRatesAreFlatUntilDeepCaps) {
  // Fig. 3: elements/second holds constant over most of the cap range
  // for cell-centered algorithms, dipping only at severe caps.
  const auto& records = sweep(Algorithm::Threshold);
  const double base = records.front().measurement.elementsPerSecond;
  for (const auto& record : records) {
    if (record.capWatts >= 70.0) {
      ASSERT_GT(record.measurement.elementsPerSecond, base * 0.93)
          << record.capWatts;
    }
  }
  EXPECT_LT(records.back().measurement.elementsPerSecond, base * 1.001);
}

}  // namespace
}  // namespace pviz::core
