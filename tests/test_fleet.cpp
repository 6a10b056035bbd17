// Fleet subsystem tests: consistent-hash ring, sweep decomposition,
// worker liveness bookkeeping, Prometheus parse/merge, client
// reconnection, the server's fleet operations, and the end-to-end
// acceptance: a four-worker fleet survives a SIGKILL mid-sweep under
// protocol chaos and still merges a report bit-identical to the
// single-process study.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "core/study.h"
#include "core/sweep.h"
#include "fleet/coordinator.h"
#include "fleet/hash_ring.h"
#include "fleet/spawn.h"
#include "fleet/worker_registry.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/metric_registry.h"
#include "telemetry/prometheus.h"
#include "util/error.h"
#include "util/exec_context.h"

namespace pviz::fleet {
namespace {

std::vector<std::string> testKeys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(count); ++i) {
    // Multiplicative scramble: purely sequential suffixes differ only
    // in their last byte, which FNV-1a maps to nearly adjacent ring
    // points — fine for routing, useless for a balance measurement.
    keys.push_back("contour/" + std::to_string(i * 2654435761u));
  }
  return keys;
}

TEST(HashRing, RoutingIsDeterministicAcrossInstances) {
  HashRing a;
  HashRing b;
  for (const char* node : {"w0", "w1", "w2", "w3"}) {
    a.add(node);
    b.add(node);
  }
  for (const std::string& key : testKeys(200)) {
    EXPECT_EQ(a.route(key), b.route(key));
  }
  EXPECT_EQ(HashRing::hash("contour/64"), HashRing::hash("contour/64"));
  EXPECT_NE(HashRing::hash("contour/64"), HashRing::hash("contour/65"));
}

TEST(HashRing, EveryNodeGetsAReasonableShare) {
  HashRing ring;
  for (const char* node : {"w0", "w1", "w2", "w3"}) ring.add(node);
  std::map<std::string, int> owned;
  const std::vector<std::string> keys = testKeys(1000);
  for (const std::string& key : keys) ++owned[ring.route(key)];
  ASSERT_EQ(owned.size(), 4u);
  for (const auto& [node, count] : owned) {
    // Fair share is 250.  128 virtual nodes still leaves real variance
    // (the worst node here deterministically owns ~8% of the space);
    // the property that matters is that no node is starved or dominant.
    EXPECT_GT(count, 50) << node;
    EXPECT_LT(count, 600) << node;
  }
}

TEST(HashRing, RemovingANodeOnlyMovesItsKeys) {
  HashRing ring;
  for (const char* node : {"w0", "w1", "w2", "w3"}) ring.add(node);
  const std::vector<std::string> keys = testKeys(500);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) before[key] = ring.route(key);

  ring.remove("w1");
  EXPECT_FALSE(ring.contains("w1"));
  for (const std::string& key : keys) {
    const std::string& owner = ring.route(key);
    EXPECT_NE(owner, "w1");
    if (before[key] != "w1") {
      // Consistent hashing: survivors keep every key they already owned.
      EXPECT_EQ(owner, before[key]) << key;
    }
  }

  // Re-adding restores the original assignment exactly.
  ring.add("w1");
  for (const std::string& key : keys) {
    EXPECT_EQ(ring.route(key), before[key]) << key;
  }
}

TEST(HashRing, RouteSequenceIsDistinctAndStartsAtOwner) {
  HashRing ring;
  for (const char* node : {"w0", "w1", "w2", "w3"}) ring.add(node);
  for (const std::string& key : testKeys(50)) {
    const std::vector<std::string> sequence = ring.routeSequence(key, 3);
    ASSERT_EQ(sequence.size(), 3u);
    EXPECT_EQ(sequence[0], ring.route(key));
    std::set<std::string> distinct(sequence.begin(), sequence.end());
    EXPECT_EQ(distinct.size(), sequence.size());
  }
  // Asking for more nodes than exist returns them all, once each.
  EXPECT_EQ(ring.routeSequence("contour/0", 10).size(), 4u);
}

TEST(HashRing, EmptyRingThrows) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.route("contour/64"), pviz::Error);
  ring.add("w0");
  ring.remove("w0");
  EXPECT_THROW(ring.route("contour/64"), pviz::Error);
}

TEST(Sweep, PerCapUnitsTileTheRecordOrder) {
  const std::vector<core::Algorithm> algorithms = {
      core::Algorithm::Contour, core::Algorithm::Slice};
  const std::vector<vis::Id> sizes = {8, 16};
  const std::vector<double> caps = {120.0, 80.0, 40.0};
  const auto units =
      core::decomposeSweep(algorithms, sizes, caps, core::SweepGrain::PerCap);
  ASSERT_EQ(units.size(), 12u);
  EXPECT_EQ(core::sweepRecordCount(algorithms, sizes, caps), 12u);

  std::vector<int> covered(12, 0);
  for (const core::SweepUnit& unit : units) {
    EXPECT_EQ(unit.recordCount, 1u);
    for (std::size_t s = 0; s < unit.recordCount; ++s) {
      ++covered[unit.firstSlot + s];
    }
  }
  for (int c : covered) EXPECT_EQ(c, 1);  // exactly-once tiling

  // Record order is sizes outer, algorithms middle, caps inner — slot 0
  // is (sizes[0], algorithms[0], caps[0]), slot 5 the last cap of the
  // second algorithm at the first size.
  EXPECT_EQ(units[0].algorithm, core::Algorithm::Contour);
  EXPECT_EQ(units[0].size, 8);
  EXPECT_EQ(units[0].firstSlot, 0u);
  ASSERT_EQ(units[0].capsWatts.size(), 1u);  // reference cap stands alone
  EXPECT_EQ(units[0].capsWatts[0], 120.0);

  // A non-reference cap cannot be evaluated alone (its ratios are
  // against the reference), so its unit carries [reference, cap].
  const core::SweepUnit& lone = units[1];
  EXPECT_EQ(lone.firstSlot, 1u);
  ASSERT_EQ(lone.capsWatts.size(), 2u);
  EXPECT_EQ(lone.capsWatts[0], 120.0);
  EXPECT_EQ(lone.capsWatts[1], 80.0);

  // All caps of one (algorithm, size) pair share a routing key, and a
  // different pair gets a different one.
  EXPECT_EQ(core::pairKey(units[0]), core::pairKey(units[1]));
  EXPECT_NE(core::pairKey(units[0]), core::pairKey(units[3]));
}

TEST(Sweep, PerPairUnitsCarryWholeCapRows) {
  const std::vector<core::Algorithm> algorithms = {
      core::Algorithm::Contour, core::Algorithm::Slice};
  const std::vector<vis::Id> sizes = {8, 16};
  const std::vector<double> caps = {120.0, 80.0, 40.0};
  const auto units =
      core::decomposeSweep(algorithms, sizes, caps, core::SweepGrain::PerPair);
  ASSERT_EQ(units.size(), 4u);
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].recordCount, 3u);
    EXPECT_EQ(units[i].firstSlot, i * 3);
    EXPECT_EQ(units[i].capsWatts, caps);
  }
}

TEST(Sweep, GrainTokensRoundTrip) {
  EXPECT_EQ(core::parseSweepGrainToken(
                core::sweepGrainToken(core::SweepGrain::PerCap)),
            core::SweepGrain::PerCap);
  EXPECT_EQ(core::parseSweepGrainToken(
                core::sweepGrainToken(core::SweepGrain::PerPair)),
            core::SweepGrain::PerPair);
  EXPECT_THROW(core::parseSweepGrainToken("row"), pviz::Error);
}

TEST(Sweep, EmptyDimensionsThrow) {
  const std::vector<core::Algorithm> algorithms = {core::Algorithm::Contour};
  const std::vector<vis::Id> sizes = {8};
  const std::vector<double> caps = {120.0};
  EXPECT_THROW(core::decomposeSweep({}, sizes, caps,
                                    core::SweepGrain::PerCap),
               pviz::Error);
  EXPECT_THROW(core::decomposeSweep(algorithms, {}, caps,
                                    core::SweepGrain::PerCap),
               pviz::Error);
  EXPECT_THROW(core::decomposeSweep(algorithms, sizes, {},
                                    core::SweepGrain::PerCap),
               pviz::Error);
}

TEST(WorkerRegistry, MissesEscalateAndSuspectRecovers) {
  WorkerRegistry registry(/*missesBeforeDead=*/3);
  registry.add("w0", "127.0.0.1", 7077, 123);
  EXPECT_EQ(registry.state("w0"), WorkerState::Alive);

  // A Suspect worker that answers again recovers to Alive.
  EXPECT_EQ(registry.recordHeartbeat("w0", false), WorkerState::Suspect);
  EXPECT_EQ(registry.recordHeartbeat("w0", true, 7), WorkerState::Alive);
  ASSERT_EQ(registry.usable().size(), 1u);

  // A success between misses resets the consecutive count: three
  // non-consecutive misses never kill.
  registry.recordHeartbeat("w0", false);
  registry.recordHeartbeat("w0", true, 8);
  registry.recordHeartbeat("w0", false);
  registry.recordHeartbeat("w0", true, 9);
  EXPECT_EQ(registry.recordHeartbeat("w0", false), WorkerState::Suspect);

  registry.markDead("w0");
  EXPECT_EQ(registry.state("w0"), WorkerState::Dead);

  const std::vector<WorkerInfo> snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].beatsSeen, 3);
  EXPECT_EQ(snapshot[0].beatsMissed, 4);
  EXPECT_EQ(snapshot[0].lastSeq, 9);
}

// Regression: a Dead worker must STAY dead.  The coordinator removes a
// Dead worker's ring slot and stops its dispatcher exactly once, on the
// Dead transition; the old registry behavior revived the entry to Alive
// on the next successful beat, leaving registry (Alive, usable) and
// routing (no ring slot, no dispatcher) permanently split-brained.
TEST(WorkerRegistry, DeadIsTerminal) {
  WorkerRegistry registry(/*missesBeforeDead=*/2);
  registry.add("w0", "127.0.0.1", 7077, 123);
  registry.add("w1", "127.0.0.1", 7078, 124);

  registry.recordHeartbeat("w0", false);
  EXPECT_EQ(registry.recordHeartbeat("w0", false), WorkerState::Dead);
  EXPECT_EQ(registry.usable(), std::vector<std::string>{"w1"});

  // The beat that used to split the brain: success after death.
  EXPECT_EQ(registry.recordHeartbeat("w0", true, 41), WorkerState::Dead);
  EXPECT_EQ(registry.state("w0"), WorkerState::Dead);
  EXPECT_EQ(registry.usable(), std::vector<std::string>{"w1"});

  // Misses after death don't resurrect anything either.
  EXPECT_EQ(registry.recordHeartbeat("w0", false), WorkerState::Dead);

  // The post-death success is still recorded in the lifetime counters
  // (it did happen), just not in the state machine.
  for (const WorkerInfo& info : registry.snapshot()) {
    if (info.name != "w0") continue;
    EXPECT_EQ(info.beatsSeen, 1);
    EXPECT_EQ(info.lastSeq, 41);
  }

  // markDead (the dispatch-path death sentence) is terminal the same way.
  registry.markDead("w1");
  EXPECT_EQ(registry.recordHeartbeat("w1", true, 42), WorkerState::Dead);
  EXPECT_TRUE(registry.usable().empty());
}

TEST(Prometheus, ParseInvertsRender) {
  telemetry::MetricRegistry registry;
  registry.counter("fleet_requests_total", {{"op", "study"}},
                   "Requests by op").inc(41);
  registry.counter("fleet_requests_total", {{"op", "ping"}},
                   "Requests by op").inc(3);
  registry.gauge("fleet_queue_depth", {}, "Queue depth right now").set(2.5);
  telemetry::Histogram& hist = registry.histogram(
      "fleet_latency_seconds", {{"op", "study"}}, "Latency by op");
  for (double v : {0.0, 1e-4, 0.02, 0.02, 1.5, 900.0}) hist.record(v);

  const std::string text = telemetry::renderPrometheus(registry);
  const auto series = telemetry::parsePrometheus(text);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(telemetry::renderPrometheus(series), text);

  // Spot-check the histogram actually survived as a distribution.
  bool sawHistogram = false;
  for (const auto& s : series) {
    if (s.name != "fleet_latency_seconds") continue;
    sawHistogram = true;
    EXPECT_EQ(s.hist.count, 6u);
    EXPECT_NEAR(s.hist.sum, 901.5401, 1e-6);
  }
  EXPECT_TRUE(sawHistogram);
}

TEST(Prometheus, ParseRejectsTruncatedHistogram) {
  telemetry::MetricRegistry registry;
  registry.histogram("x_seconds", {}, "h").record(0.5);
  std::string text = telemetry::renderPrometheus(registry);
  // Drop one _bucket line: the cumulative ladder no longer matches the
  // renderer's fixed bucket count.
  const std::size_t pos = text.find("x_seconds_bucket");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) - pos + 1);
  EXPECT_THROW(telemetry::parsePrometheus(text), pviz::Error);
}

// A full-length ladder whose bounds differ from the registry's is
// refused: re-rendering it would silently rewrite the worker's bounds.
TEST(Prometheus, ParseRejectsForeignBucketBounds) {
  telemetry::MetricRegistry registry;
  registry.histogram("x_seconds", {}, "h").record(0.5);
  std::string text = telemetry::renderPrometheus(registry);
  const std::string bound = "x_seconds_bucket{le=\"0.512\"}";
  const std::size_t pos = text.find(bound);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, bound.size(), "x_seconds_bucket{le=\"banana\"}");
  EXPECT_THROW(telemetry::parsePrometheus(text), pviz::Error);
}

TEST(Prometheus, MergedExpositionsLintWithWorkerLabels) {
  telemetry::MetricRegistry a;
  a.counter("svc_requests_total", {{"op", "study"}}, "Requests").inc(5);
  a.gauge("svc_queue_depth", {}, "Depth").set(1.0);
  a.histogram("svc_latency_seconds", {}, "Latency").record(0.25);
  telemetry::MetricRegistry b;
  b.counter("svc_requests_total", {{"op", "study"}}, "Requests").inc(9);
  b.gauge("svc_queue_depth", {}, "Depth").set(3.0);
  b.histogram("svc_latency_seconds", {}, "Latency").record(0.5);

  const std::string merged = telemetry::mergeExpositions(
      {{"w0", telemetry::renderPrometheus(a)},
       {"w1", telemetry::renderPrometheus(b)}});

  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(merged, &error)) << error;
  EXPECT_NE(merged.find("worker=\"w0\""), std::string::npos);
  EXPECT_NE(merged.find("worker=\"w1\""), std::string::npos);

  // Both instances' series survive, now distinguished by the label.
  const auto series = telemetry::parsePrometheus(merged);
  int requestSeries = 0;
  for (const auto& s : series) {
    if (s.name == "svc_requests_total") ++requestSeries;
  }
  EXPECT_EQ(requestSeries, 2);
}

// --- live-server tests ----------------------------------------------------

using service::Op;
using service::Request;
using service::Response;
using service::Server;
using service::ServerConfig;
using service::ServiceClient;

/// Same shape as the service-server suite: tiny dataset, light
/// rendering, no on-disk cache, ephemeral port.
ServerConfig testConfig() {
  ServerConfig config;
  config.port = 0;
  config.workers = 4;
  config.engine.study.params = core::AlgorithmParams::lightRendering();
  config.engine.study.cachePath.clear();
  config.engine.study.cycles = 2;
  return config;
}

TEST(FleetOps, RegisterHeartbeatClaimRoundTrip) {
  Server server(testConfig());
  server.start();
  ServiceClient client("127.0.0.1", server.port());

  Request reg;
  reg.op = Op::Register;
  reg.worker = "w7";
  Response response = client.request(reg);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.result.find("worker")->asString(), "w7");
  EXPECT_GT(response.result.find("pid")->asNumber(), 0.0);

  Request beat;
  beat.op = Op::Heartbeat;
  beat.seq = 42;
  response = client.request(beat);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.result.find("seq")->asInt(), 42);
  EXPECT_EQ(response.result.find("worker")->asString(), "w7");
  ASSERT_NE(response.result.find("queue_depth"), nullptr);

  Request claim;
  claim.op = Op::Claim;
  claim.unit = "study/contour/8/120";
  response = client.request(claim);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.result.find("granted")->asBool());

  // The assigned fleet identity shows up in stats too, so a fleet-wide
  // scrape can attribute counters.
  Request stats;
  stats.op = Op::Stats;
  response = client.request(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.result.find("worker")->asString(), "w7");
}

TEST(Client, ReconnectsAfterServerRestartOnSamePort) {
  auto first = std::make_unique<Server>(testConfig());
  first->start();
  const int port = first->port();

  ServiceClient::Limits limits;
  limits.retries = 5;
  limits.retryBackoffMs = 20;
  ServiceClient client("127.0.0.1", port, limits);

  Request ping;
  ping.op = Op::Ping;
  ASSERT_TRUE(client.request(ping).ok());

  // Replace the server: the client's next request hits a dead
  // connection (EOF or refused connect) and must reconnect-and-resend.
  first.reset();
  ServerConfig config = testConfig();
  config.port = port;  // SO_REUSEADDR makes the rebind immediate
  Server second(config);
  second.start();
  ASSERT_EQ(second.port(), port);

  const Response response = client.request(ping);
  EXPECT_TRUE(response.ok());
}

TEST(Client, ZeroRetriesFailsFastOnDeadServer) {
  auto server = std::make_unique<Server>(testConfig());
  server->start();
  const int port = server->port();
  ServiceClient client("127.0.0.1", port);  // retries = 0
  server.reset();

  Request ping;
  ping.op = Op::Ping;
  EXPECT_THROW(client.request(ping), service::ConnectionLostError);
}

TEST(Client, ReceiveTimeoutIsNotRetried) {
  Server server(testConfig());
  server.start();

  ServiceClient::Limits limits;
  limits.recvTimeoutMs = 100;
  limits.retries = 5;  // must NOT apply: a slow server is not a dead one
  ServiceClient client("127.0.0.1", server.port(), limits);

  Request slow;
  slow.op = Op::Ping;
  slow.delayMs = 2000.0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.request(slow), service::TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Five retried timeouts would take >= 600 ms; one un-retried deadline
  // stays well under the server's 2 s delay.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1500);
}

TEST(Coordinator, StartThrowsWhenNoWorkerIsReachable) {
  CoordinatorConfig config;
  FleetEndpoint endpoint;
  endpoint.name = "w0";
  endpoint.port = 1;  // nothing listens on tcp/1
  config.endpoints.push_back(endpoint);
  config.heartbeatTimeoutMs = 200;
  Coordinator coordinator(config);
  EXPECT_THROW(coordinator.start(), pviz::Error);
}

#ifdef POWERVIZ_SERVE_BIN

// The acceptance test the issue asks for: spawn four real workers, run
// the sweep, SIGKILL one mid-flight while a chaos client sprays garbage
// frames at another, and require (a) every unit completes exactly once,
// (b) the merged report is bit-identical to the single-process study,
// and (c) the merged fleet metrics still pass the lint.
TEST(Coordinator, FailoverMergesBitIdenticalUnderChaos) {
  SpawnOptions spawnOptions;
  spawnOptions.serveBin = POWERVIZ_SERVE_BIN;
  spawnOptions.args = {"--quiet", "--cache", "none", "--light"};

  std::vector<SpawnedWorker> workers;
  CoordinatorConfig config;
  for (int w = 0; w < 4; ++w) {
    workers.push_back(spawnServeWorker(spawnOptions));
    FleetEndpoint endpoint;
    endpoint.name = "w" + std::to_string(w);
    endpoint.port = workers.back().port;
    endpoint.pid = workers.back().pid;
    config.endpoints.push_back(endpoint);
  }
  config.heartbeatIntervalMs = 100;
  config.missesBeforeDead = 2;
  config.clientRetries = 1;
  config.clientBackoffMs = 30;
  config.recvTimeoutMs = 60000;
  config.hedgeAfterMs = 10000;

  const std::vector<core::Algorithm>& algorithms = core::allAlgorithms();
  const std::vector<vis::Id> sizes = {8, 12, 16};
  const std::vector<double> caps = {120.0, 80.0, 40.0};
  const int cycles = 2;
  const std::size_t expected =
      core::sweepRecordCount(algorithms, sizes, caps);

  service::Json merged;
  FleetSweepStats stats;
  std::string mergedMetrics;
  {
    Coordinator coordinator(config);
    coordinator.start();

    std::atomic<bool> stopChaos{false};
    std::thread chaos([&] {
      while (!stopChaos.load()) {
        try {
          service::MisbehavingClient bad("127.0.0.1", workers[1].port);
          bad.sendRaw("\x01{not json]\n");
          bad.readLine(100);
          bad.closeAbruptly();
        } catch (const pviz::Error&) {
          // The worker may drop the connection outright; chaos goes on.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      killWorkerHard(workers[0]);
    });

    merged = coordinator.runSweep(algorithms, sizes, caps, cycles);
    killer.join();
    stopChaos.store(true);
    chaos.join();

    stats = coordinator.lastSweepStats();
    mergedMetrics = coordinator.mergedMetrics();
    coordinator.stop();
  }
  for (SpawnedWorker& worker : workers) terminateWorker(worker);

  // Every slot filled, every unit credited to exactly one worker.
  EXPECT_EQ(stats.records, expected);
  EXPECT_EQ(merged.find("records")->asArray().size(), expected);
  std::size_t credited = 0;
  for (const auto& [name, count] : stats.unitsByWorker) credited += count;
  EXPECT_EQ(credited, stats.units);
  EXPECT_GE(stats.workersDead, 1u);
  EXPECT_GE(stats.reroutes, 1u);

  // Reference: the same sweep through one in-process engine, same
  // config the workers were spawned with.  Bit-identical JSON.
  service::EngineConfig engineConfig;
  engineConfig.study.params = core::AlgorithmParams::lightRendering();
  engineConfig.study.cachePath.clear();
  service::ServiceEngine engine(engineConfig);
  Request reference;
  reference.op = Op::Study;
  reference.algorithms = algorithms;
  reference.sizes = sizes;
  reference.capsWatts = caps;
  reference.cycles = cycles;
  util::ExecutionContext ctx;
  const service::ServiceEngine::Outcome outcome =
      engine.handle(ctx, reference);
  EXPECT_EQ(merged.dump(), outcome.result.dump());

  // The fleet-wide scrape stays well-formed and is attributed per
  // worker; the killed worker is simply absent.
  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(mergedMetrics, &error)) << error;
  EXPECT_NE(mergedMetrics.find("worker=\"w1\""), std::string::npos);
}

#endif  // POWERVIZ_SERVE_BIN

}  // namespace
}  // namespace pviz::fleet
