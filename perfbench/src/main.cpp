// perfbench — the end-to-end benchmark of PowerViz.
//
//   perfbench --workload sweep_cold|advisor_hot|advisor_mixed --seed N
//             --seconds S --trace 0|1 [--serve PATH] [--out DIR]
//             [--commit ID]
//
// Usually started through run.py, which builds it first.  Every
// workload spawns its own powerviz_serve, drives it, checks every
// output, and prints one JSON line last on stdout:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// workload traced and reports the per-layer ledger instead, writing a
// Chrome trace and a self-time table under --out.  The metric
// definitions per workload are in perfbench/metrics.md.  Exits non-zero
// when any output check fails or the open-loop generator fell behind
// its schedule (an invalid run, not a slow one).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/coordinator.h"
#include "fleet/spawn.h"
#include "inputs.h"
#include "ledger.h"
#include "loadgen.h"
#include "service/engine.h"
#include "util/error.h"
#include "util/exec_context.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace perfbench;
namespace core = pviz::core;
namespace fleet = pviz::fleet;
namespace service = pviz::service;
using service::Json;
using Clock = std::chrono::steady_clock;

// --- Workload constants ----------------------------------------------------

constexpr pviz::vis::Id kSweepSize = 128;  ///< Phase 2 (Table II)
constexpr int kCycles = 10;
constexpr int kSetups = 7;             ///< set-ups per advisor run (median)
constexpr double kHitRate = 10000.0;   ///< open-loop hits + stats, per s
constexpr double kStatsShare = 0.01;
constexpr double kMissRate = 40.0;     ///< advisor_mixed misses, per s
constexpr int kOpenLoopConnections = 2;
constexpr int kWarmSweeps = 100;       ///< warm re-sweeps per cold sweep
constexpr int kSaturationConnections = 1;
constexpr int kSaturationDepth = 32;
constexpr int kCheckedMisses = 2;      ///< misses re-run in process
/// An open-loop run whose sends were this late at p99 is invalid.
constexpr double kMaxLatenessP99Ms = 10.0;
constexpr double kDrainSeconds = 20.0;
/// Least share of the end-to-end time the traced run's named steps must
/// account for.  sweep_cold's is far lower: isovolume's second stage
/// (the hi recheck and its serial tet path, 1.4-2.3 s at 128³) and the
/// 0.2 s before contour's first phase run under no phase span, so three
/// traced runs named only 0.52-0.74 of the sweep (see metrics.md).
constexpr double kMinCoverage = 0.90;
constexpr double kMinCoverageSweep = 0.45;
/// Every server: no disk cache; everything else at powerviz_serve's
/// defaults, except the advisor servers' admission queue below.
const std::vector<std::string> kServeArgs = {"--cache", "none", "--quiet"};
/// The advisor servers' queue depth, 10 s of hits at 10 000 req/s.  At
/// the default of 64 every 30 s advisor_hot run had 80-193 open-loop
/// hits refused `overloaded` (three seeds), and a 10 s advisor_mixed run
/// 6 % of its requests.  At 4096 (0.4 s of hits) a 30 s advisor_mixed
/// run still had 1531 refused: its 32³ advection misses, 50-65 ms each,
/// at times hold all four request workers.  Deeper queueing shows as
/// latency and in service.max_queue_depth.
constexpr const char* kAdvisorQueueDepth = "100000";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serveBin;
  std::string outDir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

/// The run's outcome: operation counts, check failures and metrics.
struct Run {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, first few kept
  MetricMap metrics;
  std::vector<TraceSpan> spans;  ///< traced run: everything to the ledger
  std::vector<std::string> frames;    ///< sample request frames (replay)
  std::vector<std::string> payloads;  ///< result payloads of its keys
  double ledgerE2eMs = 0.0;
  double latenessP99Ms = 0.0;

  void fail(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
  /// One operation; `failure` is empty when it succeeded.
  void count(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      fail(failure);
    }
  }
};

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : pviz::util::percentile(v, 0.5);
}

double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : pviz::util::percentile(v, q);
}

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Latencies grouped by the second they were due in.
using Windows = std::map<long, std::vector<double>>;

/// Median over one-second windows of each window's q-quantile.  A
/// neighbour's CPU burst on a shared host moves the windows it hits,
/// not the whole run; windows under 100 samples are left out.
double windowedQuantile(const Windows& windows, double q) {
  std::vector<double> perWindow;
  for (const auto& [second, samples] : windows) {
    if (samples.size() >= 100) perWindow.push_back(quantile(samples, q));
  }
  return median(perWindow);
}

/// FNV-1a 64 of a byte string (the report digest).
std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// One spawned powerviz_serve, terminated (drained) on destruction.
class Server {
 public:
  Server(const std::string& bin, std::vector<std::string> args) {
    fleet::SpawnOptions options;
    options.serveBin = bin;
    options.args = std::move(args);
    worker_ = fleet::spawnServeWorker(options);
  }
  ~Server() { fleet::terminateWorker(worker_); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return worker_.port; }

  /// VmHWM of the server process, in MiB.
  double peakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(worker_.pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    throw pviz::Error("VmHWM not readable for the server process");
  }

  /// The `stats` op reply's result.
  Json stats() const {
    Connection conn(worker_.port);
    Request request;
    request.op = service::Op::Stats;
    const Json reply = Json::parse(conn.roundTrip(frameOf(request, 0, false)));
    return *reply.find("result");
  }

 private:
  fleet::SpawnedWorker worker_;
};

/// A one-worker fleet over `server`, started.
std::unique_ptr<fleet::Coordinator> coordinatorFor(const Server& server) {
  fleet::CoordinatorConfig config;
  config.endpoints.push_back(fleet::FleetEndpoint{"w0", "127.0.0.1",
                                                  server.port(), -1});
  config.grain = core::SweepGrain::PerPair;  // one unit per algorithm
  auto coordinator = std::make_unique<fleet::Coordinator>(config);
  coordinator->start();
  return coordinator;
}

/// A timed sweep through `coordinator` and its merged trace, rebased so
/// the whole sweep is one span tree under a root "sweep" span (one
/// dispatcher: units run one after another).
struct SweepOutcome {
  Json report;
  double wallMs = 0.0;
  std::vector<TraceSpan> spans;
  /// Dispatch span durations per unit (span name), every attempt.
  std::map<std::string, std::vector<double>> unitMs;
  fleet::FleetSweepStats stats;
  double collectMs = 0.0;  ///< collecting the merged trace afterwards
};

SweepOutcome timedSweep(fleet::Coordinator& coordinator, pviz::vis::Id size,
                        const std::vector<double>& caps) {
  SweepOutcome out;
  const std::uint64_t startUs = nowNs() / 1000;
  const auto start = Clock::now();
  out.report = coordinator.runSweep(core::allAlgorithms(), {size}, caps, kCycles);
  out.wallMs = msSince(start);
  out.stats = coordinator.lastSweepStats();

  const auto collectStart = Clock::now();
  fleet::MergedTrace merged = coordinator.collectTrace();
  out.collectMs = msSince(collectStart);
  TraceSpan root;
  root.name = "sweep";
  root.category = "bench";
  root.startUs = startUs;
  root.durationUs = static_cast<std::uint64_t>(out.wallMs * 1000.0);
  out.spans.push_back(root);
  for (TraceSpan& span : merged.spans) {
    if (span.category == "fleet") {
      out.unitMs[span.name].push_back(static_cast<double>(span.durationUs) / 1000.0);
    }
    span.args.emplace_back("unit_trace_id", std::to_string(span.traceId));
    span.traceId = 0;
    out.spans.push_back(std::move(span));
  }
  return out;
}

/// Spans of one traced client request: generator lateness, the client
/// round trip, queue wait (elapsed_ms minus the server's request span)
/// and the server's own spans, all under the server's trace id.  The
/// client times are steady-clock ns.
void addRequestSpans(const std::string& line, std::uint64_t dueNs,
                     std::uint64_t sentNs, std::uint64_t recvNs,
                     std::vector<TraceSpan>& out, std::vector<double>& queueMs,
                     std::vector<double>& handleMs, std::vector<double>& wireMs) {
  const Json reply = Json::parse(line);
  const Json* trace = reply.find("trace");
  if (trace == nullptr) return;
  std::vector<TraceSpan> spans = spansFromChrome(*trace);
  const TraceSpan* request = nullptr;
  for (const TraceSpan& s : spans) {
    if (s.name.rfind("request/", 0) == 0) request = &s;
  }
  if (request == nullptr) return;
  const double elapsedMs = reply.find("elapsed_ms")->asNumber();
  const double handle = static_cast<double>(request->durationUs) / 1000.0;
  const double queue = std::max(0.0, elapsedMs - handle);
  const double rtt = static_cast<double>(recvNs - sentNs) / 1e6;
  queueMs.push_back(queue);
  handleMs.push_back(handle);
  wireMs.push_back(rtt - elapsedMs);

  const std::uint64_t id = request->traceId;
  const std::string op = reply.find("op")->asString();
  auto make = [&](std::string name, std::string category, std::uint64_t start,
                  std::uint64_t end) {
    TraceSpan s;
    s.name = std::move(name);
    s.category = std::move(category);
    s.traceId = id;
    s.pid = 1;
    s.startUs = start;
    s.durationUs = end > start ? end - start : 0;
    return s;
  };
  out.push_back(make("lateness", "loadgen", dueNs / 1000, sentNs / 1000));
  out.push_back(make("client/" + op, "client", sentNs / 1000, recvNs / 1000));
  const auto queueUs = static_cast<std::uint64_t>(queue * 1000.0);
  out.push_back(make("queue_wait", "service", request->startUs - queueUs,
                     request->startUs));
  for (TraceSpan& s : spans) {
    s.pid = 2;
    out.push_back(std::move(s));
  }
}

void addServerCounters(const Server& server, MetricMap& m) {
  const Json stats = server.stats();
  const Json& cache = *stats.find("cache");
  const double hits = cache.find("hits")->asNumber();
  const double misses = cache.find("misses")->asNumber();
  m["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["service.wasted_misses"] = misses - cache.find("insertions")->asNumber();
  m["service.max_queue_depth"] = stats.find("max_queue_depth")->asNumber();
}

void addServiceLedger(MetricMap& m, const std::vector<double>& queueMs,
                      const std::vector<double>& handleMs,
                      const std::vector<double>& wireMs) {
  m["service.queue_wait_p50_ms"] = median(queueMs);
  m["service.queue_wait_p99_ms"] = quantile(queueMs, 0.99);
  m["service.handle_p50_ms"] = median(handleMs);
  m["service.wire_p50_ms"] = median(wireMs);
}

// --- the advisor's warm stream -----------------------------------------------

struct WarmLoad {
  double openSeconds = 0.0;        ///< open-loop phase
  double saturationSeconds = 0.0;  ///< 0: report open-loop goodput instead
  double hitRate = 0.0;
  double statsShare = 0.0;
  double missRate = 0.0;
};

/// Drive `server` with an open-loop Poisson stream over the warm keys
/// `hot` (whose cached payloads are `expected`), plus misses when
/// load.missRate > 0, then saturate it closed-loop.  Fills hit_p50_ms,
/// the hit tail and hot_rps; returns the miss latencies.  A traced run
/// traces the open loop's second half and bills it to the ledger.
std::vector<double> warmLoad(const Options& opt, Server& server,
                             const std::vector<Request>& hot,
                             const std::vector<std::string>& expected,
                             const WarmLoad& load, Run& run) {
  StreamSpec spec;
  spec.seed = opt.seed;
  spec.seconds = load.openSeconds;
  spec.hitRate = load.hitRate;
  spec.statsShare = load.statsShare;
  spec.missRate = load.missRate;
  if (opt.trace) spec.traceFromMs = load.openSeconds * 500.0;
  const std::vector<Arrival> arrivals = openLoopStream(spec, hot);
  const OpenLoopResult open = runOpenLoop(server.port(), arrivals, expected,
                                          kOpenLoopConnections, kDrainSeconds);

  std::vector<double> hitMs, tracedHitMs, missMs, lateMs;
  Windows hitWindows;
  std::vector<double> queueMs, handleMs, wireMs;
  std::vector<std::size_t> missIndices;
  std::size_t hitsOk = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const std::uint64_t dueNs =
        open.startNs + static_cast<std::uint64_t>(a.dueMs * 1e6);
    run.count(open.failure[i].empty()
                  ? std::string()
                  : "request " + std::to_string(i) + ": " + open.failure[i]);
    if (open.sentNs[i] != 0) {
      lateMs.push_back(static_cast<double>(open.sentNs[i] - dueNs) / 1e6);
    }
    if (!open.failure[i].empty()) continue;
    const double latency = static_cast<double>(open.recvNs[i] - dueNs) / 1e6;
    const bool traced = a.dueMs >= spec.traceFromMs;
    if (a.kind == Arrival::Kind::Miss) {
      missMs.push_back(latency);
      missIndices.push_back(i);
    } else {
      (traced ? tracedHitMs : hitMs).push_back(latency);
      if (!traced) hitWindows[static_cast<long>(a.dueMs / 1000.0)].push_back(latency);
      if (a.kind == Arrival::Kind::Hit) ++hitsOk;
    }
    if (traced && !open.tracedLines[i].empty()) {
      addRequestSpans(open.tracedLines[i], dueNs, open.sentNs[i],
                      open.recvNs[i], run.spans, queueMs, handleMs, wireMs);
      run.ledgerE2eMs += latency;
    }
  }
  run.latenessP99Ms = quantile(lateMs, 0.99);

  // A seeded sample of misses must equal the in-process engine's answer.
  if (load.missRate > 0.0) {
    if (missIndices.empty()) run.fail("no miss completed");
    service::EngineConfig config;
    config.study.params = core::AlgorithmParams::lightRendering();
    config.study.cachePath.clear();
    service::ServiceEngine engine(config);
    pviz::util::ExecutionContext ctx;
    pviz::util::Rng rng(opt.seed + 17);
    for (int k = 0; k < kCheckedMisses && !missIndices.empty(); ++k) {
      const std::size_t i = missIndices[rng.below(missIndices.size())];
      const service::ServiceEngine::Outcome local =
          engine.handle(ctx, missRequest(arrivals[i].missSeeds));
      if (local.result.dump() != open.missResults[i]) {
        run.fail("miss " + std::to_string(i) +
                 " differs from in-process ServiceEngine::handle");
      }
    }
  }

  MetricMap& m = run.metrics;
  m["hit_p50_ms"] = windowedQuantile(hitWindows, 0.50);
  m["loadgen.hit_p95_ms"] = windowedQuantile(hitWindows, 0.95);
  m["loadgen.hit_p99_ms"] = quantile(hitMs, 0.99);
  m["hot_rps"] = static_cast<double>(hitsOk) / load.openSeconds;
  m["loadgen.hit_samples"] = static_cast<double>(hitMs.size() + tracedHitMs.size());
  m["loadgen.lateness_p99_ms"] = run.latenessP99Ms;
  if (opt.trace) {
    m["telemetry.trace_overhead"] = median(tracedHitMs) / median(hitMs);
    addServiceLedger(m, queueMs, handleMs, wireMs);
    addServerCounters(server, m);
  } else if (load.saturationSeconds > 0.0) {
    const SaturationResult sat =
        runSaturation(server.port(), hot, expected, opt.seed,
                      kSaturationConnections, kSaturationDepth,
                      load.saturationSeconds);
    run.attempted += sat.attempted;
    run.failed += sat.failed;
    if (sat.failed > 0) run.fail("saturation: " + sat.firstFailure);
    m["hot_rps"] = median(sat.windowRps);
  }
  return missMs;
}

void addSweepLedger(const SweepOutcome& sweep, Run& run) {
  run.spans.insert(run.spans.end(), sweep.spans.begin(), sweep.spans.end());
  run.ledgerE2eMs += sweep.wallMs;
  run.metrics["fleet.dispatches_per_unit"] =
      static_cast<double>(sweep.stats.dispatches) /
      static_cast<double>(sweep.stats.units);
}

// --- sweep_cold --------------------------------------------------------------

/// The records of a sweep report, or empty after a failed check.
std::string checkedRecords(const Json& report, const char* what, Run& run) {
  const Json& records = *report.find("records");
  if (report.find("count")->asInt() != 72 || records.asArray().size() != 72) {
    run.fail(std::string(what) + " returned " +
             std::to_string(records.asArray().size()) + " records, expected 72");
    return {};
  }
  return records.dump();
}

Run sweepCold(const Options& opt) {
  Run run;
  const std::vector<double> caps = core::StudyConfig{}.capsWatts;
  std::vector<double> setupS, sweepS, rssMb;
  std::vector<double> warmRps, warmUnitMs;  // per repetition: its median
  std::size_t warmSamples = 0;
  std::map<std::string, std::vector<double>> unitMs;
  std::string firstDigest;

  // Cold sweeps on fresh servers for the whole run (at least two).  Each
  // is followed by the same sweep again on the same server, all
  // result-cache hits, the way BENCH_fleet.json times warm sweeps.
  const auto runStart = Clock::now();
  for (int rep = 0; rep < 2 || msSince(runStart) < opt.seconds * 1000.0; ++rep) {
    const auto start = Clock::now();
    Server server(opt.serveBin, kServeArgs);
    auto coordinator = coordinatorFor(server);
    setupS.push_back(msSince(start) / 1000.0);

    const SweepOutcome sweep = timedSweep(*coordinator, kSweepSize, caps);
    sweepS.push_back(sweep.wallMs / 1000.0);
    for (const auto& [unit, ms] : sweep.unitMs) {
      unitMs[unit].insert(unitMs[unit].end(), ms.begin(), ms.end());
    }
    run.attempted += sweep.stats.dispatches;
    const std::string records = checkedRecords(sweep.report, "cold sweep", run);
    if (records.empty()) break;
    const std::string d = std::to_string(digest(records));
    if (rep == 0) firstDigest = d;
    if (d != firstDigest) run.fail("sweep digest differs between repetitions");

    if (opt.trace) {
      addSweepLedger(sweep, run);
      run.metrics["telemetry.trace_overhead"] =
          (sweep.wallMs + sweep.collectMs) / sweep.wallMs;
      addServerCounters(server, run.metrics);
      run.payloads = {records};
      coordinator->stop();
      break;  // one traced repetition is the ledger
    }

    const std::uint64_t warmStartUs = nowNs() / 1000;
    std::vector<double> repRps, repUnitMs;
    for (int w = 0; w < kWarmSweeps; ++w) {
      const auto warmStart = Clock::now();
      const Json report =
          coordinator->runSweep(core::allAlgorithms(), {kSweepSize}, caps, kCycles);
      const double wallS = msSince(warmStart) / 1000.0;
      const fleet::FleetSweepStats stats = coordinator->lastSweepStats();
      repRps.push_back(static_cast<double>(stats.units) / wallS);
      run.count(stats.cachedReplies == stats.units &&
                        std::to_string(digest(checkedRecords(report, "warm sweep",
                                                             run))) == firstDigest
                    ? std::string()
                    : "warm sweep: not all units cached, or records differ");
    }
    for (const TraceSpan& span : coordinator->collectTrace().spans) {
      if (span.category == "fleet" && span.startUs >= warmStartUs) {
        repUnitMs.push_back(static_cast<double>(span.durationUs) / 1000.0);
      }
    }
    warmRps.push_back(median(repRps));
    warmUnitMs.push_back(median(repUnitMs));
    warmSamples += repUnitMs.size();
    rssMb.push_back(server.peakRssMb());
    coordinator->stop();
  }
  for (const core::Algorithm algorithm : core::allAlgorithms()) {
    Request request;
    request.op = service::Op::Study;
    request.algorithms = {algorithm};
    request.sizes = {kSweepSize};
    request.capsWatts = caps;
    request.cycles = kCycles;
    run.frames.push_back(frameOf(request, 0, false));
  }

  // The reference: the same scope through core::Study in this process.
  {
    core::StudyConfig config;
    config.cachePath.clear();
    core::Study study(config);
    pviz::util::ExecutionContext ctx;
    Json records = Json::array();
    for (const core::Algorithm algorithm : core::allAlgorithms()) {
      for (const core::ConfigRecord& record :
           study.capSweep(ctx, algorithm, kSweepSize, caps, kCycles)) {
        records.push(service::recordToJson(record));
      }
    }
    if (std::to_string(digest(records.dump())) != firstDigest) {
      run.fail("fleet sweep digest differs from the in-process core::Study run");
    }
  }

  MetricMap& m = run.metrics;
  m["setup_s"] = median(setupS);
  // Compute-bound times are the best of the repetitions: a neighbour's
  // burst on a shared host only ever adds time.
  m["sweep_s"] = minimum(sweepS);
  m["peak_rss_mb"] = median(rssMb);
  // Warm units are sub-millisecond round trips with idle gaps between
  // sweeps, so a busy neighbour moves whole repetitions: best one.
  m["hit_p50_ms"] = minimum(warmUnitMs);
  m["hot_rps"] = warmRps.empty() ? 0.0
                                 : *std::max_element(warmRps.begin(), warmRps.end());
  m["loadgen.hit_samples"] = static_cast<double>(warmSamples);
  // Each unit's best time over repetitions first: the units are eight
  // different kernels, and a percentile straight over all samples would
  // sit on the edge between two of them.
  std::vector<double> unitBest;
  std::size_t unitSamples = 0;
  for (const auto& [unit, ms] : unitMs) {
    unitBest.push_back(minimum(ms));
    unitSamples += ms.size();
  }
  m["miss_p50_ms"] = median(unitBest);
  m["loadgen.miss_p90_ms"] = quantile(unitBest, 0.90);
  m["loadgen.miss_samples"] = static_cast<double>(unitSamples);
  return run;
}

// --- advisor_hot / advisor_mixed ----------------------------------------------

/// Spawn an advisor server, characterize its algorithms through a
/// one-worker fleet sweep at kAdvisorSize, then warm the result cache
/// with every hot-set key.  Records the set-up time, the pre-sweep, the
/// warm-up (result-cache miss) latencies and each key's payload.
struct Setup {
  std::unique_ptr<Server> server;
  double setupS = 0.0;
  SweepOutcome sweep;
  std::vector<double> warmMs;
  std::vector<std::string> expected;
};

Setup advisorSetup(const Options& opt, const std::vector<Request>& hot,
                   Run& run) {
  Setup s;
  const auto start = Clock::now();
  std::vector<std::string> args = kServeArgs;
  args.insert(args.end(), {"--light", "--backend", "serial", "--queue",
                           kAdvisorQueueDepth});
  s.server = std::make_unique<Server>(opt.serveBin, args);
  {
    auto coordinator = coordinatorFor(*s.server);
    s.sweep = timedSweep(*coordinator, kAdvisorSize, core::StudyConfig{}.capsWatts);
    coordinator->stop();
    run.attempted += s.sweep.stats.dispatches;
    if (s.sweep.report.find("count")->asInt() != 72) {
      run.fail("advisor pre-sweep returned the wrong record count");
    }
  }
  Connection conn(s.server->port());
  for (std::size_t k = 0; k < hot.size(); ++k) {
    const std::uint64_t sent = nowNs();
    const std::string line = conn.roundTrip(frameOf(hot[k], k, false));
    const std::uint64_t recv = nowNs();
    Reply reply;
    const bool ok = scanReply(line, reply) && reply.status == "ok" &&
                    !reply.cached && reply.id == k;
    run.count(ok ? std::string() : "warm-up request failed: " + line.substr(0, 200));
    s.warmMs.push_back(static_cast<double>(recv - sent) / 1e6);
    s.expected.emplace_back(reply.result);
  }
  s.setupS = msSince(start) / 1000.0;
  return s;
}

Run advisor(const Options& opt, bool mixed) {
  Run run;
  const std::vector<Request> hot = hotSet();

  // Set up kSetups times; the last server carries the load.
  std::vector<double> setupS, sweepS, warmMs;
  Setup setup;
  std::vector<std::string> previous;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // the previous server drains and exits first
    setup = advisorSetup(opt, hot, run);
    setupS.push_back(setup.setupS);
    sweepS.push_back(setup.sweep.wallMs / 1000.0);
    warmMs.insert(warmMs.end(), setup.warmMs.begin(), setup.warmMs.end());
    if (i > 0 && setup.expected != previous) {
      run.fail("warm-up payloads differ between set-ups");
    }
    previous = setup.expected;
  }
  Server& server = *setup.server;
  for (const Request& r : hot) run.frames.push_back(frameOf(r, 0, false));
  run.payloads = setup.expected;
  if (opt.trace) addSweepLedger(setup.sweep, run);

  WarmLoad load;
  load.openSeconds = mixed ? opt.seconds : opt.seconds / 2.0;
  load.saturationSeconds = mixed ? 0.0 : opt.seconds / 2.0;
  load.hitRate = kHitRate;
  load.statsShare = kStatsShare;
  load.missRate = mixed ? kMissRate : 0.0;
  const std::vector<double> missMs = warmLoad(opt, server, hot, setup.expected, load, run);

  MetricMap& m = run.metrics;
  m["setup_s"] = median(setupS);
  m["sweep_s"] = minimum(sweepS);
  const std::vector<double>& misses = mixed ? missMs : warmMs;
  m["miss_p50_ms"] = median(misses);
  m["loadgen.miss_p90_ms"] = quantile(misses, 0.90);
  m["loadgen.miss_samples"] = static_cast<double>(misses.size());
  // VmHWM at the end of the run: set-up and load together.
  m["peak_rss_mb"] = server.peakRssMb();
  return run;
}

// --- output --------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},        {"sweep_s", "s"},
      {"peak_rss_mb", "MiB"},  {"hit_p50_ms", "ms"},
      {"hot_rps", "1/s"},      {"miss_p50_ms", "ms"}};
  return specs;
}

std::vector<MetricSpec> perLayerMetrics() {
  std::vector<MetricSpec> specs;
  for (const std::string& phase : kernelPhases()) {
    specs.push_back({"viz.self_ms." + phase, "ms"});
  }
  specs.push_back({"viz.self_ms.other", "ms"});
  for (const core::Algorithm algorithm : core::allAlgorithms()) {
    const std::string t = core::algorithmToken(algorithm);
    specs.push_back({"viz.elements." + t, "count"});
    specs.push_back({"viz.instructions." + t, "count"});
    specs.push_back({"core.characterize_ms." + t, "ms"});
    specs.push_back({"core.model_ms." + t, "ms"});
  }
  const std::vector<MetricSpec> rest = {
      {"core.advisor_us", "us"},
      {"sim.dataset_ms.32", "ms"},
      {"sim.dataset_ms.128", "ms"},
      {"sim.hydro_ms", "ms"},
      {"util.arena_peak_mb", "MiB"},
      {"util.arena_reuse_ratio", "ratio"},
      {"fleet.overhead_ms", "ms"},
      {"fleet.dispatches_per_unit", "count"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.handle_p50_ms", "ms"},
      {"service.wire_p50_ms", "ms"},
      {"service.parse_us", "us"},
      {"service.serialize_us", "us"},
      {"service.cache_get_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.wasted_misses", "count"},
      {"service.max_queue_depth", "count"},
      {"telemetry.trace_overhead", "ratio"},
      {"loadgen.lateness_p99_ms", "ms"},
      {"loadgen.hit_p95_ms", "ms"},
      {"loadgen.hit_p99_ms", "ms"},
      {"loadgen.miss_p90_ms", "ms"},
      {"loadgen.hit_samples", "count"},
      {"loadgen.miss_samples", "count"},
      {"ledger.coverage", "ratio"},
      {"ledger.unattributed_ms", "ms"}};
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

Json provenance(const Options& opt, const Run& run) {
  Json p = Json::object();
  p.set("workload", opt.workload);
  p.set("seed", static_cast<double>(opt.seed));
  p.set("seconds", opt.seconds);
  p.set("trace", opt.trace);
  p.set("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("compiler", PERFBENCH_COMPILER);
  p.set("commit", opt.commit);
  p.set("lateness_p99_ms", run.latenessP99Ms);
  p.set("lateness_bound_ms", kMaxLatenessP99Ms);
  return p;
}

[[noreturn]] void usage(int code) {
  std::cerr << "usage: perfbench --workload sweep_cold|advisor_hot|advisor_mixed"
               " --seed N --seconds S --trace 0|1 [--serve PATH] [--out DIR]"
               " [--commit ID]\n";
  std::exit(code);
}

Options parseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") usage(0);
    if (i + 1 >= argc) usage(2);
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--serve") opt.serveBin = value;
    else if (arg == "--out") opt.outDir = value;
    else if (arg == "--commit") opt.commit = value;
    else usage(2);
  }
  if (opt.workload != "sweep_cold" && opt.workload != "advisor_hot" &&
      opt.workload != "advisor_mixed") {
    usage(2);
  }
  if (!(opt.seconds > 0.0)) usage(2);
  if (opt.serveBin.empty()) {
    // The build puts powerviz_serve in tools/ beside this binary.
    opt.serveBin = (std::filesystem::canonical("/proc/self/exe").parent_path() /
                    "tools" / "powerviz_serve")
                       .string();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parseOptions(argc, argv);
  } catch (const std::exception&) {
    usage(2);  // a malformed number
  }
  Run run;
  try {
    run = opt.workload == "sweep_cold" ? sweepCold(opt)
                                       : advisor(opt, opt.workload == "advisor_mixed");
    if (opt.trace) {
      MetricMap& m = run.metrics;
      const Ledger ledger = buildLedger(run.spans, run.ledgerE2eMs, m);
      m["ledger.coverage"] = ledger.coverage();
      m["ledger.unattributed_ms"] = ledger.unattributedMs();
      m["fleet.overhead_ms"] = ledger.stepMs.count("fleet.coordinator")
                                   ? ledger.stepMs.at("fleet.coordinator")
                                   : 0.0;

      ReplaySpec replay;
      const bool sweep = opt.workload == "sweep_cold";
      replay.size = sweep ? kSweepSize : kAdvisorSize;
      if (!sweep) replay.params = core::AlgorithmParams::lightRendering();
      replay.capsWatts = core::StudyConfig{}.capsWatts;
      replay.cycles = kCycles;
      replay.frames = run.frames;
      replay.results = run.payloads;
      replayLayers(replay, m);

      std::filesystem::create_directories(opt.outDir);
      const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
      writeChromeTrace(stem + ".trace.json", run.spans);
      const std::string table = "provenance " + provenance(opt, run).dump() +
                                "\n" + ledger.table();
      pviz::util::atomicWriteFile(stem + ".ledger.txt", table);
      std::cerr << table;
      const double floor = sweep ? kMinCoverageSweep : kMinCoverage;
      if (ledger.coverage() < floor || ledger.coverage() > 1.10) {
        run.fail("named ledger steps cover " + std::to_string(ledger.coverage()) +
                 " of the end-to-end time (bounds: " + std::to_string(floor) +
                 " to 1.10)");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }

  bool valid = true;
  if (run.latenessP99Ms > kMaxLatenessP99Ms) {
    valid = false;
    run.fail("invalid run: generator p99 lateness " +
             std::to_string(run.latenessP99Ms) + " ms exceeds " +
             std::to_string(kMaxLatenessP99Ms) + " ms");
  }
  for (const std::string& p : run.problems) std::cerr << "check failed: " << p << '\n';

  Json metrics = Json::object();
  const std::vector<MetricSpec> specs =
      opt.trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricSpec& spec : specs) {
    Json entry = Json::object();
    const auto it = run.metrics.find(spec.name);
    entry.set("value", it == run.metrics.end() ? 0.0 : it->second);
    entry.set("unit", spec.unit);
    metrics.set(spec.name, std::move(entry));
  }
  const bool correct = valid && run.problems.empty() && run.failed == 0;
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<double>(std::max<std::size_t>(run.attempted, 1)));
  result.set("failed", static_cast<double>(run.failed));
  result.set("metrics", std::move(metrics));
  std::cout << "provenance " << provenance(opt, run).dump() << '\n'
            << result.dump() << std::endl;
  return correct ? 0 : 1;
}
