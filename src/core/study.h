// The study driver: the (power cap × algorithm × dataset size) matrix of
// the paper's experiments — 288 configurations at full scope.  The
// phases are scopes over it (powerviz_study --phase).
//
// Two operations cover it.  characterize runs the real kernel once on
// the host to measure its work (the expensive part); capSweep then
// evaluates every power cap on the package model.  Characterizations are
// memoized in one map keyed on (algorithm, size, profile-relevant
// params) and optionally on disk under the same key, so the per-table
// bench binaries and the service's override requests share them.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/execution_sim.h"
#include "core/metrics.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::core {

struct StudyConfig {
  /// Processor power caps, default cap first (paper: 120 W → 40 W).
  std::vector<double> capsWatts = {120, 110, 100, 90, 80, 70, 60, 50, 40};
  /// Dataset sizes (cells per axis; paper: 32, 64, 128, 256).
  std::vector<vis::Id> sizes = {32, 64, 128, 256};
  AlgorithmParams params;
  /// Visualization cycles per configuration (the paper couples the
  /// filter to a running simulation and reports time over all cycles).
  int cycles = 10;
  /// Host-to-VTK-m work calibration (see scaleKernelWork): multiplies
  /// every characterized operation count so modeled runtimes land on
  /// the paper's scale (seconds, not milliseconds).  Leaves IPC, power
  /// draw and all ratios untouched.
  double workScale = 100.0;
  SimulatorOptions simulator;
  arch::MachineDescription machine =
      arch::MachineDescription::broadwellE52695v4();
  /// Optional on-disk characterization cache (empty = in-memory only).
  std::string cachePath;
};

/// One (algorithm, size, cap) study record.
struct ConfigRecord {
  Algorithm algorithm{};
  vis::Id size = 0;
  double capWatts = 0.0;
  Measurement measurement;
  Ratios ratios;  ///< against the default (first) cap of the same pair
};

/// The study driver.  Safe to share across threads: the memo is
/// lock-protected and a characterization in flight is joined by
/// concurrent requests for the same key rather than rerun (the service
/// layer issues these from several request workers at once).
class Study {
 public:
  explicit Study(StudyConfig config = {});

  /// Characterize (run for real) `algorithm` on the `size`^3 dataset
  /// under `params`; memoized on the profile cache key, which covers
  /// every parameter that changes the profile (not the execution backend,
  /// whose outputs are bit-identical).  The returned profile covers a
  /// single visualization cycle and stays valid for the Study's
  /// lifetime.  If the context's token cancels mid-kernel the
  /// characterization throws util::CancelledError and leaves the memo
  /// and disk caches untouched (a later uncancelled call re-runs from
  /// scratch).
  const vis::KernelProfile& characterize(util::ExecutionContext& ctx,
                                         Algorithm algorithm, vis::Id size,
                                         const AlgorithmParams& params);

  /// Characterize once, then evaluate every cap on the package model
  /// (the profile work-scaled and repeated for `cycles`); ratios are
  /// against capsWatts[0].  The caps run in parallel under the context's
  /// backend kind, one cap per chunk, into slot-indexed records, so
  /// the result is bit-identical on every backend and pool size; a
  /// cancelled context throws util::CancelledError.
  std::vector<ConfigRecord> capSweep(util::ExecutionContext& ctx,
                                     Algorithm algorithm, vis::Id size,
                                     const std::vector<double>& capsWatts,
                                     int cycles, const AlgorithmParams& params);
  /// Same, under the configured params.
  std::vector<ConfigRecord> capSweep(util::ExecutionContext& ctx,
                                     Algorithm algorithm, vis::Id size,
                                     const std::vector<double>& capsWatts,
                                     int cycles) {
    return capSweep(ctx, algorithm, size, capsWatts, cycles, config_.params);
  }

  /// The dataset used for characterization at `size` (memoized).  A
  /// miss builds it on `ctx` under a "dataset" phase; a cancelled build
  /// leaves no entry.
  const vis::UniformGrid& dataset(util::ExecutionContext& ctx, vis::Id size);

  const StudyConfig& config() const { return config_; }

 private:
  StudyConfig config_;
  ExecutionSimulator simulator_;
  std::mutex datasetMutex_;  ///< guards datasets_ (incl. generation)
  std::map<vis::Id, std::unique_ptr<vis::UniformGrid>> datasets_;
  std::mutex profileMutex_;  ///< guards profiles_ and inFlight_
  std::condition_variable profileReady_;
  std::map<std::string, vis::KernelProfile> profiles_;
  std::set<std::string> inFlight_;  ///< keys being characterized right now
  std::mutex diskCacheMutex_;  ///< serializes the cache read-modify-write
};

/// Serialize/load characterization profiles (the on-disk cache format).
/// Saving is atomic: the cache is written to a temporary file in the same
/// directory and renamed into place, so a concurrent reader (another
/// bench binary or server worker sharing --cache) never sees a torn file.
void saveProfileCache(
    const std::string& path,
    const std::map<std::string, vis::KernelProfile>& entries);
std::map<std::string, vis::KernelProfile> loadProfileCache(
    const std::string& path);

}  // namespace pviz::core
