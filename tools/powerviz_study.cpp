// powerviz_study — command-line driver for the full study.
//
//   powerviz_study --phase 3 --csv results.csv
//   powerviz_study --algorithms contour,slice --sizes 32,64 --caps 120,80,40
//
// Runs the requested slice of the (cap x algorithm x size) matrix,
// prints a paper-style summary, and optionally exports every record as
// CSV for plotting.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "core/report.h"
#include "core/study.h"
#include "telemetry/trace_sink.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/fileio.h"
#include "util/log.h"
#include "viz/filters/particle_advection.h"
#include "util/options.h"
#include "util/table.h"

namespace {

using namespace pviz;

[[noreturn]] void usage(int exitCode) {
  std::cout <<
      R"(powerviz_study — reproduce the IPDPS'19 power/performance study

options:
  --phase N             run the paper's phase 1, 2 or 3 (overrides
                        --algorithms/--sizes)
  --algorithms a,b,...  subset by name: contour threshold clip isovolume
                        slice advection raytracing volume (default: all)
  --sizes n,n,...       cells per axis (default: 32,64,128,256)
  --caps w,w,...        power caps in watts, default first
                        (default: 120..40 step 10)
  --cycles N            visualization cycles per configuration (default 10)
  --full-render         trace all 50 cameras instead of sampling 8
  --csv PATH            write every record as CSV
  --trace PATH          write the per-phase execution trace (wall time,
                        arena occupancy, pool concurrency) as JSON
  --trace-chrome PATH   write the same phases as Chrome trace-event JSON
                        (open in Perfetto or chrome://tracing)
  --power-timeline PATH write every record's 100 ms power/energy timeline
                        (watts, cumulative joules, phase) as JSON
  --cache PATH          characterization cache file (default: the
                        POWERVIZ_PROFILE_CACHE env var, else
                        pviz_profile_cache.txt; "none" disables)
  --backend NAME        execution backend: serial | threaded
                        (default: POWERVIZ_BACKEND, else threaded; both
                        backends produce bit-identical results)
  --advect-seeds N      advection particle count, 1..50000000
                        (default 1000)
  --advect-steps N      advection max integration steps, 1..10000000
                        (default 1000)
  --advect-mode M       streamline | pathline
  --blocks N            multi-block k-slab count, 1..4096 (default:
                        POWERVIZ_BLOCKS, else 1).  Outputs are
                        bit-identical for every block count; the profile
                        gains ghost-exchange / block-stitch phases.
  --ghost N             ghost cell layers per block side, 1..8 (default:
                        POWERVIZ_GHOST, else 1)
  --quiet               suppress progress logging
                        (PVIZ_LOG=debug|info|warn|error|off overrides)
  -h, --help            this text
)";
  std::exit(exitCode);
}

// Range-checked integer flag: rejects typos (zero, negatives, absurd
// magnitudes) at parse time with the offending flag named, before any
// dataset is generated.
std::int64_t parseBounded(const std::string& value, const char* flag,
                          std::int64_t lo, std::int64_t hi) {
  const std::int64_t parsed = util::parseInt(value, flag);
  if (parsed < lo || parsed > hi) {
    std::cerr << flag << " must be in [" << lo << ", " << hi << "], got "
              << parsed << '\n';
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  core::StudyConfig config;
  config.params.cameraCount = 50;
  config.params.sampledCameraCount = 8;
  config.params.imageWidth = 512;
  config.params.imageHeight = 512;
  // POWERVIZ_PROFILE_CACHE moves the on-disk cache out of the CWD (CI
  // keeps it in the build tree; --cache still wins over the env var).
  const char* cacheEnv = std::getenv("POWERVIZ_PROFILE_CACHE");
  config.cachePath = cacheEnv != nullptr ? cacheEnv : "pviz_profile_cache.txt";
  util::setDefaultLogLevel(util::LogLevel::Info);

  std::vector<core::Algorithm> algorithms = core::allAlgorithms();
  int phase = 0;
  std::string csvPath;
  std::string backendToken;
  std::string tracePath;
  std::string traceChromePath;
  std::string powerTimelinePath;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") usage(0);
      else if (arg == "--phase") phase = static_cast<int>(util::parseInt(next(), "--phase"));
      else if (arg == "--cycles") config.cycles = static_cast<int>(util::parseInt(next(), "--cycles"));
      else if (arg == "--full-render") config.params.sampledCameraCount = 0;
      else if (arg == "--csv") csvPath = next();
      else if (arg == "--backend") {
        backendToken = next();
        exec::parseBackendToken(backendToken);  // reject bad names up front
      }
      else if (arg == "--trace") tracePath = next();
      else if (arg == "--trace-chrome") traceChromePath = next();
      else if (arg == "--power-timeline") powerTimelinePath = next();
      else if (arg == "--quiet") util::setLogLevel(util::LogLevel::Warn);
      else if (arg == "--cache") {
        const std::string path = next();
        config.cachePath = path == "none" ? "" : path;
      } else if (arg == "--sizes") {
        config.sizes.clear();
        for (std::int64_t size : util::parseSizeList(next())) {
          config.sizes.push_back(size);
        }
      } else if (arg == "--caps") {
        config.capsWatts = util::parseCapList(next());
      } else if (arg == "--algorithms") {
        algorithms = core::parseAlgorithmList(next());
      } else if (arg == "--advect-seeds") {
        config.params.seedCount =
            parseBounded(next(), "--advect-seeds", 1, 50000000);
      } else if (arg == "--advect-steps") {
        config.params.maxSteps =
            parseBounded(next(), "--advect-steps", 1, 10000000);
      } else if (arg == "--blocks") {
        config.params.blockCount = parseBounded(next(), "--blocks", 1, 4096);
      } else if (arg == "--ghost") {
        config.params.ghostLayers = parseBounded(next(), "--ghost", 1, 8);
      } else if (arg == "--advect-mode") {
        config.params.advectionMode = next();
        vis::ParticleAdvectionFilter::parseMode(config.params.advectionMode);
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        usage(2);
      }
    }
  } catch (const pviz::Error& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  if (phase == 1) {
    algorithms = {core::Algorithm::Contour};
    config.sizes = {128};
  } else if (phase == 2) {
    algorithms = core::allAlgorithms();
    config.sizes = {128};
  } else if (phase == 3) {
    algorithms = core::allAlgorithms();
    config.sizes = {32, 64, 128, 256};
  } else if (phase != 0) {
    std::cerr << "phase must be 1, 2 or 3\n";
    return 2;
  }

  core::Study study(config);
  // One context for the whole run: every characterization shares the
  // thread pool and scratch arena, so later sweeps reuse the buffers the
  // first one allocated; the tracer accumulates every kernel phase.
  util::ExecutionContext ctx;
  if (!backendToken.empty()) {
    ctx.setBackend(exec::parseBackendToken(backendToken));
  }
  std::vector<core::ConfigRecord> records;
  for (vis::Id size : config.sizes) {
    for (core::Algorithm algorithm : algorithms) {
      auto sweep =
          study.capSweep(ctx, algorithm, size, config.capsWatts, config.cycles);
      records.insert(records.end(), sweep.begin(), sweep.end());
    }
  }

  // Summary: one row per (algorithm, size) with the slowdown knee.
  util::TextTable table;
  table.setHeader({"Algorithm", "Size", "Draw(W)", "IPC", "Knee(W)",
                   "Tratio@min"});
  for (std::size_t r = 0; r < records.size();
       r += config.capsWatts.size()) {
    std::vector<double> tratios;
    for (std::size_t c = 0; c < config.capsWatts.size(); ++c) {
      tratios.push_back(records[r + c].ratios.tRatio);
    }
    const int knee = core::firstSlowdownIndex(tratios);
    const auto& first = records[r];
    table.addRow(
        {core::algorithmName(first.algorithm), std::to_string(first.size),
         util::formatFixed(first.measurement.averageWatts, 1),
         util::formatFixed(first.measurement.ipc, 2),
         knee >= 0 ? util::formatFixed(config.capsWatts[static_cast<std::size_t>(knee)], 0)
                   : std::string("none"),
         util::formatRatio(tratios.back())});
  }
  table.print(std::cout);
  std::cout << records.size() << " configurations evaluated\n";

  if (!csvPath.empty()) {
    std::ofstream out(csvPath);
    if (!out.good()) {
      std::cerr << "cannot write " << csvPath << '\n';
      return 1;
    }
    core::writeStudyCsv(records, out);
    std::cout << "wrote " << csvPath << '\n';
  }

  // Trace and timeline exports are atomic (temp file + rename, the
  // profile-cache pattern): a failed write leaves the old file intact
  // instead of a silently truncated one, and exits non-zero.
  try {
    if (!tracePath.empty()) {
      util::atomicWriteFile(tracePath, ctx.tracer().toJson() + "\n");
      std::cout << "wrote " << tracePath << '\n';
    }
    if (!traceChromePath.empty()) {
      telemetry::TraceSink sink;
      sink.addPhases(ctx.tracer(), /*traceId=*/1);
      util::atomicWriteFile(traceChromePath, sink.toChromeJson() + "\n");
      std::cout << "wrote " << traceChromePath << " (" << sink.size()
                << " spans)\n";
    }
    if (!powerTimelinePath.empty()) {
      util::atomicWriteFile(powerTimelinePath,
                            core::powerTimelineJson(records) + "\n");
      std::cout << "wrote " << powerTimelinePath << '\n';
    }
  } catch (const pviz::Error& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
  return 0;
}
