#include "core/study.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/log.h"
#include "util/parallel.h"

namespace pviz::core {

namespace {

std::string cacheKey(Algorithm algorithm, vis::Id size,
                     const AlgorithmParams& p) {
  std::ostringstream os;
  // Whitespace-free (the cache format is token-separated).
  os << "alg" << static_cast<int>(algorithm) << '|' << size << '|' << p.isovalueCount
     << '|' << p.seedCount << '|' << p.maxSteps << '|' << p.cameraCount
     << '|' << p.imageWidth << 'x' << p.imageHeight << '|' << p.advectionMode;
  // Decomposition changes the profile (ghost-exchange / block-stitch
  // phases), so it is part of the key; the execution backend is not
  // (outputs and profiles are backend-invariant).
  os << "|b" << p.blockCount << "g" << p.ghostLayers;
  // The remaining profile-relevant knobs, fractions in exact hex form.
  os << "|s" << p.sampledCameraCount << "|f" << std::hexfloat
     << p.thresholdLoFraction << ',' << p.thresholdHiFraction << ','
     << p.clipRadiusFraction << ',' << p.isovolumeLoFraction << ','
     << p.isovolumeHiFraction << ',' << p.stepLength;
  return os.str();
}

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      simulator_(config_.machine, config_.simulator) {
  PVIZ_REQUIRE(!config_.capsWatts.empty(), "study needs at least one cap");
  PVIZ_REQUIRE(!config_.sizes.empty(), "study needs at least one size");
  PVIZ_REQUIRE(config_.cycles >= 1, "study needs at least one cycle");
}

const vis::UniformGrid& Study::dataset(util::ExecutionContext& ctx,
                                      vis::Id size) {
  // One lock spans lookup and generation: concurrent requests for the
  // same size wait for the single generation instead of racing it.
  std::lock_guard lock(datasetMutex_);
  auto it = datasets_.find(size);
  if (it == datasets_.end()) {
    PVIZ_LOG_INFO("generating " << size << "^3 clover dataset");
    auto scope = ctx.phase("dataset");
    it = datasets_
             .emplace(size, std::make_unique<vis::UniformGrid>(
                                sim::makeCloverField(ctx, size)))
             .first;
  }
  return *it->second;
}

const vis::KernelProfile& Study::characterize(util::ExecutionContext& ctx,
                                              Algorithm algorithm,
                                              vis::Id size,
                                              const AlgorithmParams& params) {
  const std::string key = cacheKey(algorithm, size, params);

  // Claim the key or join a characterization already in flight.
  // profiles_ is a node-based map, so returned references stay valid
  // while other threads insert.
  {
    std::unique_lock lock(profileMutex_);
    for (;;) {
      auto it = profiles_.find(key);
      if (it != profiles_.end()) return it->second;
      if (inFlight_.insert(key).second) break;  // this thread runs it
      profileReady_.wait(lock);
    }
  }

  vis::KernelProfile profile;
  try {
    bool fromDisk = false;
    if (!config_.cachePath.empty()) {
      std::lock_guard diskLock(diskCacheMutex_);
      auto disk = loadProfileCache(config_.cachePath);
      auto hit = disk.find(key);
      if (hit != disk.end()) {
        PVIZ_LOG_INFO("profile cache hit: " << key);
        profile = std::move(hit->second);
        fromDisk = true;
      }
    }

    if (!fromDisk) {
      PVIZ_LOG_INFO("characterizing " << algorithmName(algorithm) << " at "
                                      << size << "^3");
      profile = runAlgorithm(ctx, algorithm, dataset(ctx, size), params);
      if (!config_.cachePath.empty()) {
        std::lock_guard diskLock(diskCacheMutex_);
        auto disk = loadProfileCache(config_.cachePath);
        disk[key] = profile;
        saveProfileCache(config_.cachePath, disk);
      }
    }
  } catch (...) {
    std::lock_guard lock(profileMutex_);
    inFlight_.erase(key);
    profileReady_.notify_all();
    throw;
  }

  std::lock_guard lock(profileMutex_);
  auto inserted = profiles_.emplace(key, std::move(profile)).first;
  inFlight_.erase(key);
  profileReady_.notify_all();
  return inserted->second;
}

std::vector<ConfigRecord> Study::capSweep(util::ExecutionContext& ctx,
                                          Algorithm algorithm, vis::Id size,
                                          const std::vector<double>& capsWatts,
                                          int cycles,
                                          const AlgorithmParams& params) {
  PVIZ_REQUIRE(!capsWatts.empty(), "cap sweep needs at least one cap");
  PVIZ_REQUIRE(cycles >= 1, "cap sweep needs at least one cycle");
  // Scaling and repeating are pure, so one modeled profile serves every
  // cap; only the package model runs per cap.
  vis::KernelProfile kernel = scaleKernelWork(
      characterize(ctx, algorithm, size, params), config_.workScale);
  if (cycles > 1) kernel = repeatKernel(kernel, cycles);

  // Each cap builds its own MSR file, governor and meter, so the caps are
  // independent: they run through the context's backend into their own
  // slots.  Slots are handed out last cap first: caps come default
  // (highest) first, and the lowest caps simulate the longest runs, so
  // starting them first shortens the critical path.  One phase scope
  // spans the region (PhaseTracer is not thread-safe), and the ratios
  // need the baseline, so they come after.
  std::vector<ConfigRecord> records(capsWatts.size());
  {
    auto scope = ctx.phase("simulate/" + algorithmName(algorithm));
    util::parallelFor(
        ctx, 0, static_cast<std::int64_t>(capsWatts.size()),
        [&](std::int64_t i) {
          const std::size_t slot =
              capsWatts.size() - 1 - static_cast<std::size_t>(i);
          ConfigRecord& record = records[slot];
          record.algorithm = algorithm;
          record.size = size;
          record.capWatts = capsWatts[slot];
          record.measurement =
              simulator_.run(kernel, record.capWatts, &ctx.cancel());
        },
        /*grain=*/1);
  }
  for (ConfigRecord& record : records) {
    record.ratios =
        computeRatios(records.front().measurement, capsWatts.front(),
                      record.measurement, record.capWatts);
  }
  return records;
}

// --- On-disk characterization cache -------------------------------------
// Line format:
//   entry <quoted-ish key> <kernel> <elements> <phaseCount>
//   phase <name> f i m bs br irr ws par ov          (x phaseCount)

void saveProfileCache(
    const std::string& path,
    const std::map<std::string, vis::KernelProfile>& entries) {
  // Write-then-rename: the temporary lives in the same directory as the
  // final path so the rename is atomic, and a concurrent loadProfileCache
  // (another bench binary or server worker sharing --cache) sees either
  // the old complete file or the new complete file, never a torn one.
  static std::atomic<unsigned> tmpSerial{0};
  std::ostringstream tmpName;
  tmpName << path << ".tmp." << ::getpid() << '.'
          << tmpSerial.fetch_add(1, std::memory_order_relaxed);
  const std::string tmpPath = tmpName.str();
  {
    std::ofstream out(tmpPath, std::ios::trunc);
    PVIZ_REQUIRE(out.good(),
                 "cannot write profile cache at '" + tmpPath + "'");
    out.precision(17);
    for (const auto& [key, profile] : entries) {
      out << "entry " << key << ' ' << profile.kernel << ' '
          << profile.elements << ' ' << profile.phases.size() << '\n';
      for (const auto& ph : profile.phases) {
        out << "phase " << (ph.name.empty() ? "?" : ph.name) << ' ' << ph.flops
            << ' ' << ph.intOps << ' ' << ph.memOps << ' ' << ph.bytesStreamed
            << ' ' << ph.bytesReused << ' ' << ph.irregularAccesses << ' '
            << ph.workingSetBytes << ' ' << ph.parallelFraction << ' '
            << ph.overlap << '\n';
      }
    }
    out.flush();
    PVIZ_REQUIRE(out.good(),
                 "short write to profile cache at '" + tmpPath + "'");
  }
  if (std::rename(tmpPath.c_str(), path.c_str()) != 0) {
    std::remove(tmpPath.c_str());
    PVIZ_REQUIRE(false,
                 "cannot move profile cache into place at '" + path + "'");
  }
}

std::map<std::string, vis::KernelProfile> loadProfileCache(
    const std::string& path) {
  std::map<std::string, vis::KernelProfile> entries;
  std::ifstream in(path);
  if (!in.good()) return entries;  // absent cache = empty cache
  std::string tag;
  while (in >> tag) {
    PVIZ_REQUIRE(tag == "entry", "corrupt profile cache: expected 'entry'");
    std::string key, kernel;
    std::size_t phaseCount = 0;
    vis::KernelProfile profile;
    in >> key >> kernel >> profile.elements >> phaseCount;
    profile.kernel = kernel;
    for (std::size_t p = 0; p < phaseCount; ++p) {
      in >> tag;
      PVIZ_REQUIRE(tag == "phase", "corrupt profile cache: expected 'phase'");
      vis::WorkProfile ph;
      in >> ph.name >> ph.flops >> ph.intOps >> ph.memOps >>
          ph.bytesStreamed >> ph.bytesReused >> ph.irregularAccesses >>
          ph.workingSetBytes >> ph.parallelFraction >> ph.overlap;
      profile.phases.push_back(std::move(ph));
    }
    PVIZ_REQUIRE(in.good() || in.eof(), "corrupt profile cache");
    entries.emplace(std::move(key), std::move(profile));
  }
  return entries;
}

}  // namespace pviz::core
