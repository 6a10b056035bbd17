// Observability-layer tests: the lock-free event ring, SLO burn-rate
// windows, per-request energy attribution (conservation against the
// PowerSampler totals), deterministic fleet metric merging, trace-
// context protocol plumbing, and the server-side `events` /
// `trace_dump` ops including the cancelled-request no-orphan rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/energy_attribution.h"
#include "telemetry/event_ring.h"
#include "telemetry/metric_registry.h"
#include "telemetry/prometheus.h"
#include "telemetry/slo_tracker.h"
#include "telemetry/trace_sink.h"
#include "util/error.h"

namespace pviz {
namespace {

using service::Json;
using service::Op;
using service::Request;
using service::Response;
using service::Server;
using service::ServerConfig;
using service::ServiceClient;

// ---------------------------------------------------------------- events

TEST(EventRing, EmitsInOrderAndTruncatesFields) {
  telemetry::EventRing ring(8);
  ring.emit(telemetry::EventKind::SlowRequest, "study", "first", 12.5);
  ring.emit(telemetry::EventKind::Overloaded, "classify", "second");
  const std::string longDetail(300, 'x');
  ring.emit(telemetry::EventKind::Lifecycle,
            "an-op-token-far-longer-than-the-field", longDetail);

  const std::vector<telemetry::Event> events = ring.recent();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, telemetry::EventKind::SlowRequest);
  EXPECT_STREQ(events[0].op, "study");
  EXPECT_STREQ(events[0].detail, "first");
  EXPECT_DOUBLE_EQ(events[0].value, 12.5);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_GT(events[1].timeUs, 0u);
  // Truncation keeps the NUL terminator inside the fixed field.
  EXPECT_LT(std::strlen(events[2].op), sizeof(events[2].op));
  EXPECT_LT(std::strlen(events[2].detail), sizeof(events[2].detail));
  EXPECT_EQ(ring.totalEmitted(), 3u);
}

TEST(EventRing, IsLossyOldestUnderPressure) {
  telemetry::EventRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.emit(telemetry::EventKind::Timeout, "ping", std::to_string(i));
  }
  const std::vector<telemetry::Event> events = ring.recent();
  ASSERT_EQ(events.size(), 4u);  // capacity bound
  // The survivors are the newest four, oldest first.
  EXPECT_STREQ(events.front().detail, "6");
  EXPECT_STREQ(events.back().detail, "9");
  EXPECT_EQ(ring.totalEmitted(), 10u);

  // recent(limit) trims from the old end.
  const std::vector<telemetry::Event> two = ring.recent(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_STREQ(two.front().detail, "8");
}

TEST(EventRing, ConcurrentEmittersNeverTearEvents) {
  telemetry::EventRing ring(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      const std::string detail = "thread-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        ring.emit(telemetry::EventKind::SlowRequest, "study", detail,
                  static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ring.totalEmitted(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Every surviving event is internally consistent (detail matches the
  // value written by the same thread — a torn slot would mix them).
  for (const telemetry::Event& event : ring.recent()) {
    EXPECT_EQ(std::string(event.detail),
              "thread-" + std::to_string(static_cast<int>(event.value)));
  }
}

// ------------------------------------------------------------------- slo

TEST(SloTracker, BurnRatesOverBothWindows) {
  telemetry::SloTracker slo;
  slo.setObjective("study", 100.0);
  ASSERT_TRUE(slo.hasObjectives());
  EXPECT_DOUBLE_EQ(slo.objectiveMs("study"), 100.0);
  EXPECT_DOUBLE_EQ(slo.objectiveMs("ping"), 0.0);

  const std::uint64_t hour = 3600u * 1000000u;
  std::uint64_t now = 10 * hour;

  // 50 minutes ago: 100 requests, 2 violations — long window only.
  const std::uint64_t old = now - 50u * 60u * 1000000u;
  for (int i = 0; i < 98; ++i) {
    EXPECT_FALSE(slo.record("study", 50.0, false, old));
  }
  EXPECT_TRUE(slo.record("study", 250.0, false, old));
  EXPECT_TRUE(slo.record("study", 50.0, true, old));  // error = violation

  // Now: 100 requests, 4 violations — both windows.
  for (int i = 0; i < 96; ++i) slo.record("study", 50.0, false, now);
  for (int i = 0; i < 4; ++i) slo.record("study", 500.0, false, now);

  const telemetry::SloTracker::Window window = slo.burn("study", now);
  EXPECT_EQ(window.shortWindow.requests, 100u);
  EXPECT_EQ(window.shortWindow.violations, 4u);
  // 4% violations against a 1% budget = burn rate 4.
  EXPECT_NEAR(window.shortWindow.burnRate, 4.0, 1e-9);
  EXPECT_EQ(window.longWindow.requests, 200u);
  EXPECT_EQ(window.longWindow.violations, 6u);
  EXPECT_NEAR(window.longWindow.burnRate, 3.0, 1e-9);

  // Ops without an objective are a no-op and burn zero.
  EXPECT_FALSE(slo.record("ping", 1e9, false, now));
  const telemetry::SloTracker::Window none = slo.burn("ping", now);
  EXPECT_EQ(none.shortWindow.requests, 0u);
  EXPECT_DOUBLE_EQ(none.longWindow.burnRate, 0.0);
}

TEST(SloTracker, StaleBucketsExpireFromTheRing) {
  telemetry::SloTracker slo;
  slo.setObjective("classify", 10.0);
  const std::uint64_t hour = 3600u * 1000000u;
  std::uint64_t now = 100 * hour;
  slo.record("classify", 100.0, false, now);  // violation
  // Two hours later the ring has wrapped past it entirely.
  const telemetry::SloTracker::Window later = slo.burn("classify", now + 2 * hour);
  EXPECT_EQ(later.longWindow.requests, 0u);
  EXPECT_EQ(later.longWindow.violations, 0u);
}

// ---------------------------------------------------------------- energy

TEST(EnergyAttribution, ConservesJoulesAcrossRequests) {
  telemetry::MetricRegistry registry;
  telemetry::EnergyAttributor energy(registry);

  energy.beginRequest(1, "study", 1000);
  energy.recordRun(1, "contour", 120.0, 10.0, 0.5);
  energy.recordRun(1, "contour", 80.0, 6.0, 0.6);
  energy.recordRun(1, "slice", 120.0, 4.0, 0.2);
  const telemetry::EnergyAttributor::RequestEnergy first =
      energy.endRequest(1, 2000);
  EXPECT_DOUBLE_EQ(first.joules, 20.0);
  EXPECT_EQ(first.runs, 3);
  EXPECT_DOUBLE_EQ(first.overlapJoules, 0.0);  // ran alone

  energy.beginRequest(2, "study", 3000);
  energy.recordRun(2, "contour", 120.0, 8.0, 0.4);
  energy.endRequest(2, 4000);

  // Unknown tokens (requests the server never bracketed) are ignored.
  energy.recordRun(99, "volume", 120.0, 1000.0, 1.0);

  const telemetry::EnergyAttributor::Summary summary = energy.summary();
  EXPECT_DOUBLE_EQ(summary.totalJoules, 28.0);
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_DOUBLE_EQ(summary.joulesPerRequest(), 14.0);
  ASSERT_EQ(summary.byAlgorithm.count("contour"), 1u);
  EXPECT_DOUBLE_EQ(summary.byAlgorithm.at("contour").joules, 24.0);
  EXPECT_EQ(summary.byAlgorithm.at("contour").runs, 3u);
  EXPECT_EQ(summary.byAlgorithm.at("contour").requests, 2u);
  EXPECT_DOUBLE_EQ(summary.byAlgorithm.at("contour").joulesPerRequest(), 12.0);
  EXPECT_DOUBLE_EQ(summary.byAlgorithm.at("slice").joules, 4.0);
  EXPECT_DOUBLE_EQ(summary.byCap.at(120.0).joules, 22.0);
  EXPECT_DOUBLE_EQ(summary.byCap.at(80.0).joules, 6.0);
  // Conservation: algorithm totals and cap totals are each a partition
  // of the same run energies.
  double byAlg = 0.0;
  for (const auto& [name, alg] : summary.byAlgorithm) byAlg += alg.joules;
  double byCap = 0.0;
  for (const auto& [cap, c] : summary.byCap) byCap += c.joules;
  EXPECT_DOUBLE_EQ(byAlg, summary.totalJoules);
  EXPECT_DOUBLE_EQ(byCap, summary.totalJoules);
}

TEST(EnergyAttribution, OverlapAccruesOnlyWhileRequestsShare) {
  telemetry::MetricRegistry registry;
  telemetry::EnergyAttributor energy(registry);

  // A runs [1.0 s, 2.0 s]; B runs [1.4 s, 1.8 s]: 400 ms shared.
  energy.beginRequest(1, "study", 1000000);
  energy.recordRun(1, "contour", 120.0, 10.0, 1.0);
  energy.beginRequest(2, "study", 1400000);
  energy.recordRun(2, "slice", 120.0, 5.0, 0.4);
  const telemetry::EnergyAttributor::RequestEnergy b =
      energy.endRequest(2, 1800000);
  const telemetry::EnergyAttributor::RequestEnergy a =
      energy.endRequest(1, 2000000);

  // B was shared for its entire window, A for 40% of its.
  EXPECT_NEAR(b.overlapJoules, 5.0, 1e-9);
  EXPECT_NEAR(a.overlapJoules, 4.0, 1e-9);
  // Overlap reporting never changes the conserved totals.
  const telemetry::EnergyAttributor::Summary summary = energy.summary();
  EXPECT_DOUBLE_EQ(summary.totalJoules, 15.0);
  EXPECT_NEAR(summary.overlapJoules, 9.0, 1e-9);
}

// ------------------------------------------------------- metrics merging

TEST(MergeExpositions, ByteIdenticalUnderInputPermutation) {
  // Families deliberately interleaved and unsorted per worker.
  const std::string a =
      "# HELP pviz_requests_total requests\n"
      "# TYPE pviz_requests_total counter\n"
      "pviz_requests_total{op=\"study\"} 5\n"
      "pviz_requests_total{op=\"ping\"} 2\n"
      "# HELP pviz_queue_depth depth\n"
      "# TYPE pviz_queue_depth gauge\n"
      "pviz_queue_depth 1\n";
  const std::string b =
      "# HELP pviz_queue_depth depth\n"
      "# TYPE pviz_queue_depth gauge\n"
      "pviz_queue_depth 3\n"
      "# HELP pviz_requests_total requests\n"
      "# TYPE pviz_requests_total counter\n"
      "pviz_requests_total{op=\"ping\"} 7\n";
  const std::string c =
      "# HELP pviz_requests_total requests\n"
      "# TYPE pviz_requests_total counter\n"
      "pviz_requests_total{op=\"study\"} 1\n";

  std::vector<std::pair<std::string, std::string>> inputs = {
      {"w0", a}, {"w1", b}, {"w2", c}};
  const std::string reference = telemetry::mergeExpositions(inputs, "worker");

  std::string error;
  ASSERT_TRUE(telemetry::lintPrometheus(reference, &error)) << error;
  // The instance label lands after the series' own labels; the worker
  // is the primary sort key inside a family.
  EXPECT_NE(reference.find("pviz_requests_total{op=\"study\",worker=\"w0\"} 5"),
            std::string::npos);
  EXPECT_NE(reference.find("pviz_queue_depth{worker=\"w1\"} 3"),
            std::string::npos);

  // Any permutation of the worker list produces identical bytes, and
  // re-merging is idempotent (deterministic repeated scrapes).
  std::sort(inputs.begin(), inputs.end());
  do {
    EXPECT_EQ(telemetry::mergeExpositions(inputs, "worker"), reference);
  } while (std::next_permutation(inputs.begin(), inputs.end()));
  EXPECT_EQ(telemetry::mergeExpositions({{"w0", a}, {"w1", b}, {"w2", c}},
                                        "worker"),
            reference);
}

// -------------------------------------------------------------- protocol

TEST(Protocol, TraceContextRoundTripsAndStaysOutOfTheCacheKey) {
  Request request;
  request.op = Op::Study;
  request.algorithms = {core::Algorithm::Contour};
  request.sizes = {16};
  request.capsWatts = {120.0, 80.0};
  request.cycles = 2;
  const std::string baseKey = service::canonicalCacheKey(request);

  request.traceId = 42;
  request.parentSpan = 42;
  const Request parsed =
      service::requestFromJson(Json::parse(service::toJson(request).dump()));
  EXPECT_EQ(parsed.traceId, 42u);
  EXPECT_EQ(parsed.parentSpan, 42u);
  // Tracing must never split the result cache.
  EXPECT_EQ(service::canonicalCacheKey(parsed), baseKey);

  // Untraced requests do not carry the fields on the wire at all.
  Request untraced;
  untraced.op = Op::Ping;
  const std::string line = service::toJson(untraced).dump();
  EXPECT_EQ(line.find("trace_id"), std::string::npos);
  EXPECT_EQ(line.find("parent_span"), std::string::npos);
}

TEST(Protocol, NewOpsRoundTripAndAreNeverCached) {
  EXPECT_EQ(service::parseOpToken("trace_dump"), Op::TraceDump);
  EXPECT_EQ(service::parseOpToken("events"), Op::Events);
  EXPECT_STREQ(service::opToken(Op::TraceDump), "trace_dump");
  EXPECT_STREQ(service::opToken(Op::Events), "events");

  Request dump;
  dump.op = Op::TraceDump;
  dump.clearTrace = true;
  const Request dumpParsed =
      service::requestFromJson(Json::parse(service::toJson(dump).dump()));
  EXPECT_EQ(dumpParsed.op, Op::TraceDump);
  EXPECT_TRUE(dumpParsed.clearTrace);
  EXPECT_EQ(service::canonicalCacheKey(dumpParsed), "");

  Request events;
  events.op = Op::Events;
  events.eventsLimit = 17;
  const Request eventsParsed =
      service::requestFromJson(Json::parse(service::toJson(events).dump()));
  EXPECT_EQ(eventsParsed.op, Op::Events);
  EXPECT_EQ(eventsParsed.eventsLimit, 17);
  EXPECT_EQ(service::canonicalCacheKey(eventsParsed), "");
}

TEST(Protocol, TraceSpanJsonRoundTrip) {
  telemetry::TraceSpan span;
  span.name = "dispatch/contour/16";
  span.category = "fleet";
  span.traceId = 7;
  span.parentSpan = 3;
  span.pid = 4;
  span.threadId = 2;
  span.startUs = 123456;
  span.durationUs = 789;
  span.args = {{"worker", "w1"}, {"status", "ok"}};

  const telemetry::TraceSpan back = service::traceSpanFromJson(
      Json::parse(service::traceSpanToJson(span).dump()));
  EXPECT_EQ(back.name, span.name);
  EXPECT_EQ(back.category, span.category);
  EXPECT_EQ(back.traceId, span.traceId);
  EXPECT_EQ(back.parentSpan, span.parentSpan);
  EXPECT_EQ(back.pid, span.pid);
  EXPECT_EQ(back.threadId, span.threadId);
  EXPECT_EQ(back.startUs, span.startUs);
  EXPECT_EQ(back.durationUs, span.durationUs);
  EXPECT_EQ(back.args, span.args);
}

TEST(Protocol, TraceSpanJsonRoundTripsTheLargestWireValues) {
  telemetry::TraceSpan span;
  span.traceId = (std::uint64_t{1} << 53) - 1;
  span.parentSpan = span.traceId;
  span.pid = 0xffffffffu;
  span.threadId = 0xffffffffu;
  span.startUs = span.traceId;
  span.durationUs = span.traceId;
  const telemetry::TraceSpan back = service::traceSpanFromJson(
      Json::parse(service::traceSpanToJson(span).dump()));
  EXPECT_EQ(back.traceId, span.traceId);
  EXPECT_EQ(back.parentSpan, span.parentSpan);
  EXPECT_EQ(back.pid, span.pid);
  EXPECT_EQ(back.threadId, span.threadId);
  EXPECT_EQ(back.startUs, span.startUs);
  EXPECT_EQ(back.durationUs, span.durationUs);

  // An absent pid keeps the span default lane.
  EXPECT_EQ(service::traceSpanFromJson(Json::parse("{}")).pid, 1u);
}

TEST(Protocol, TraceSpanFromJsonRejectsOutOfRangeNumbers) {
  for (const char* key :
       {"trace_id", "parent_span", "pid", "tid", "start_us", "dur_us"}) {
    for (const char* value : {"1e30", "-1", "2.5"}) {
      SCOPED_TRACE(std::string(key) + "=" + value);
      const std::string row =
          std::string("{\"name\":\"s\",\"") + key + "\":" + value + "}";
      EXPECT_THROW(service::traceSpanFromJson(Json::parse(row)), pviz::Error);
    }
  }
  // One past each type's limit.
  EXPECT_THROW(service::traceSpanFromJson(
                   Json::parse("{\"trace_id\":9007199254740992}")),
               pviz::Error);
  EXPECT_THROW(
      service::traceSpanFromJson(Json::parse("{\"tid\":4294967296}")),
      pviz::Error);
}

// ------------------------------------------------------ server end-to-end

ServerConfig testConfig() {
  ServerConfig config;
  config.port = 0;
  config.workers = 4;
  config.engine.study.params = core::AlgorithmParams::lightRendering();
  config.engine.study.cachePath.clear();
  config.engine.study.cycles = 2;
  return config;
}

TEST(ServerObservability, SloBurnGaugesAndSlowRequestEvents) {
  ServerConfig config = testConfig();
  // An objective every ping violates, and one no ping touches.
  config.sloP99Ms = {{"ping", 0.000001}, {"study", 60000.0}};
  Server server(config);
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    Request ping;
    ping.op = Op::Ping;
    EXPECT_TRUE(client.request(ping).ok());
  }

  Request stats;
  stats.op = Op::Stats;
  const Response statsReply = client.request(stats);
  ASSERT_TRUE(statsReply.ok());
  const Json* slo = statsReply.result.find("slo");
  ASSERT_NE(slo, nullptr);
  const Json* ping = slo->find("ping");
  ASSERT_NE(ping, nullptr);
  EXPECT_DOUBLE_EQ(ping->find("p99_objective_ms")->asNumber(), 0.000001);
  EXPECT_EQ(ping->find("requests_5m")->asNumber(), 5.0);
  EXPECT_EQ(ping->find("violations_5m")->asNumber(), 5.0);
  // Every request violating a 1% budget burns at 100x.
  EXPECT_NEAR(ping->find("burn_rate_5m")->asNumber(), 100.0, 1e-9);
  const Json* study = slo->find("study");
  ASSERT_NE(study, nullptr);
  EXPECT_DOUBLE_EQ(study->find("violations_5m")->asNumber(), 0.0);

  // The violations surfaced as slow_request events through the ring.
  Request events;
  events.op = Op::Events;
  const Response eventsReply = client.request(events);
  ASSERT_TRUE(eventsReply.ok());
  std::size_t slow = 0;
  for (const Json& event : eventsReply.result.find("events")->asArray()) {
    if (event.find("kind")->asString() == "slow_request") {
      EXPECT_EQ(event.find("op")->asString(), "ping");
      ++slow;
    }
  }
  EXPECT_GE(slow, 5u);
  EXPECT_GE(eventsReply.result.find("emitted")->asNumber(), 5.0);

  // The burn-rate gauges reach the Prometheus exposition and lint.
  Request metrics;
  metrics.op = Op::Metrics;
  const Response metricsReply = client.request(metrics);
  ASSERT_TRUE(metricsReply.ok());
  const std::string text =
      metricsReply.result.find("exposition")->asString();
  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(text, &error)) << error;
  EXPECT_NE(text.find("pviz_slo_burn_rate{op=\"ping\",window=\"5m\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_slo_objective_ms{op=\"study\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_request_joules"), std::string::npos);

  server.stop();
}

TEST(ServerObservability, RejectsUnknownSloOpAtConstruction) {
  ServerConfig config = testConfig();
  config.sloP99Ms = {{"no-such-op", 100.0}};
  EXPECT_THROW(Server{config}, pviz::Error);
}

// The acceptance criterion: joules-per-request per algorithm reported by
// `stats`, whose sum over a sequential run equals the PowerSampler
// totals (the records' own energy fields) within 1%.
TEST(ServerObservability, EnergyAttributionMatchesStudyRecords) {
  Server server(testConfig());
  server.start();
  ServiceClient client("127.0.0.1", server.port());

  Request study;
  study.op = Op::Study;
  study.algorithms = {core::Algorithm::Contour, core::Algorithm::Slice};
  study.sizes = {8, 12};
  study.capsWatts = {120.0, 80.0};
  study.cycles = 2;
  const Response reply = client.request(study);
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply.cached);

  double recordJoules = 0.0;
  std::map<std::string, double> perAlgorithm;
  for (const Json& row : reply.result.find("records")->asArray()) {
    const core::ConfigRecord record = service::recordFromJson(row);
    recordJoules += record.measurement.energyJoules;
    perAlgorithm[core::algorithmToken(record.algorithm)] +=
        record.measurement.energyJoules;
  }
  ASSERT_GT(recordJoules, 0.0);

  Request stats;
  stats.op = Op::Stats;
  const Response statsReply = client.request(stats);
  ASSERT_TRUE(statsReply.ok());
  const Json* energy = statsReply.result.find("energy");
  ASSERT_NE(energy, nullptr);
  const double total = energy->find("total_joules")->asNumber();
  EXPECT_NEAR(total, recordJoules, recordJoules * 0.01);
  EXPECT_EQ(energy->find("requests")->asNumber(), 1.0);
  EXPECT_NEAR(energy->find("joules_per_request")->asNumber(), recordJoules,
              recordJoules * 0.01);

  const Json* byAlgorithm = energy->find("by_algorithm");
  ASSERT_NE(byAlgorithm, nullptr);
  double algorithmSum = 0.0;
  for (const auto& [name, expected] : perAlgorithm) {
    const Json* alg = byAlgorithm->find(name);
    ASSERT_NE(alg, nullptr) << name;
    EXPECT_NEAR(alg->find("joules")->asNumber(), expected,
                expected * 0.01 + 1e-12);
    algorithmSum += alg->find("joules")->asNumber();
  }
  EXPECT_NEAR(algorithmSum, total, total * 1e-9);

  // A cache hit runs no kernels, so it credits no energy.
  const Response cached = client.request(study);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.cached);
  const Response statsAfter = client.request(stats);
  EXPECT_DOUBLE_EQ(
      statsAfter.result.find("energy")->find("total_joules")->asNumber(),
      total);

  server.stop();
}

TEST(ServerObservability, TraceDumpRetainsPropagatedSpansAndClears) {
  Server server(testConfig());
  server.start();
  ServiceClient client("127.0.0.1", server.port());

  // A fleet-traced classify: propagated id, parent span.
  Request classify;
  classify.op = Op::Classify;
  classify.algorithm = core::Algorithm::Contour;
  classify.size = 12;
  classify.traceId = 777;
  classify.parentSpan = 777;
  ASSERT_TRUE(client.request(classify).ok());

  // The same classify again under another fleet trace: a cache hit,
  // answered without a worker, still leaves its request span.
  Request hit = classify;
  hit.traceId = 778;
  hit.parentSpan = 778;
  const Response hitReply = client.request(hit);
  ASSERT_TRUE(hitReply.ok());
  ASSERT_TRUE(hitReply.cached);

  // An untraced ping must leave nothing in the buffer.
  Request ping;
  ping.op = Op::Ping;
  ASSERT_TRUE(client.request(ping).ok());

  Request dump;
  dump.op = Op::TraceDump;
  dump.clearTrace = true;
  const Response reply = client.request(dump);
  ASSERT_TRUE(reply.ok());
  const Json::Array& spans = reply.result.find("spans")->asArray();
  ASSERT_FALSE(spans.empty());
  bool sawRequestSpan = false;
  int hitSpans = 0;
  for (const Json& row : spans) {
    const telemetry::TraceSpan span = service::traceSpanFromJson(row);
    if (span.traceId == 778u) {
      // The hit ran no kernel: its request span is all it leaves.
      ++hitSpans;
      EXPECT_EQ(span.name, "request/classify");
      EXPECT_EQ(span.parentSpan, 778u);
      const auto cacheHit =
          std::find(span.args.begin(), span.args.end(),
                    std::pair<std::string, std::string>("cache_hit", "true"));
      EXPECT_NE(cacheHit, span.args.end());
      continue;
    }
    EXPECT_EQ(span.traceId, 777u) << span.name;
    if (span.name == "request/classify") {
      sawRequestSpan = true;
      EXPECT_EQ(span.parentSpan, 777u);
      EXPECT_EQ(span.category, "service");
    }
  }
  EXPECT_TRUE(sawRequestSpan);
  EXPECT_EQ(hitSpans, 1);
  EXPECT_GT(reply.result.find("now_us")->asNumber(), 0.0);

  // clearTrace drained the buffer.
  const Response empty = client.request(dump);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.result.find("count")->asNumber(), 0.0);

  server.stop();
}

TEST(ServerObservability, CancelledFleetTracedRequestRetainsNoSpans) {
  ServerConfig config = testConfig();
  config.workers = 1;
  config.requestTimeoutMs = 150;
  Server server(config);
  server.start();
  ServiceClient client("127.0.0.1", server.port());

  // A fleet-traced ping whose delay outlives the request budget: the
  // engine cancels it mid-dispatch.  The coordinator would re-dispatch
  // the unit under the same trace id, so the aborted attempt must leave
  // no spans behind.
  Request doomed;
  doomed.op = Op::Ping;
  doomed.delayMs = 600;
  doomed.traceId = 888;
  const Response response = client.request(doomed);
  EXPECT_EQ(response.status, "error");
  EXPECT_GE(server.metrics().value(service::ServiceMetrics::kCancelled), 1u);

  Request dump;
  dump.op = Op::TraceDump;
  const Response reply = client.request(dump);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.find("count")->asNumber(), 0.0);
  for (const Json& row : reply.result.find("spans")->asArray()) {
    EXPECT_NE(service::traceSpanFromJson(row).traceId, 888u);
  }

  // The cancellation is visible in the event ring instead.
  Request events;
  events.op = Op::Events;
  const Response eventsReply = client.request(events);
  ASSERT_TRUE(eventsReply.ok());
  bool sawCancelled = false;
  for (const Json& event : eventsReply.result.find("events")->asArray()) {
    if (event.find("kind")->asString() == "cancelled") sawCancelled = true;
  }
  EXPECT_TRUE(sawCancelled);

  server.stop();
}

}  // namespace
}  // namespace pviz
