// End-to-end service tests: a real server on an ephemeral localhost
// port, real TCP clients, concurrent classify requests, backpressure,
// drain-on-stop, SIGINT drain of the powerviz_serve binary, and the
// chaos suite — every misbehaving-client scenario must end in a clean
// `error`/disconnect with the server still serving and no reader
// threads leaked.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "telemetry/prometheus.h"
#include "util/error.h"

namespace pviz::service {
namespace {

/// A server config sized for tests: tiny dataset, light rendering, no
/// on-disk cache, ephemeral port.
ServerConfig testConfig() {
  ServerConfig config;
  config.port = 0;
  config.workers = 4;
  config.engine.study.params = core::AlgorithmParams::lightRendering();
  config.engine.study.cachePath.clear();
  config.engine.study.cycles = 2;
  return config;
}

Request classifyRequest(vis::Id size = 12) {
  Request request;
  request.op = Op::Classify;
  request.algorithm = core::Algorithm::Contour;
  request.size = size;
  return request;
}

/// A reply line must be exactly the canonical dump of the response it
/// parses to: the spliced envelope writes what toJson(Response) would.
void expectCanonicalReply(const std::string& line) {
  EXPECT_EQ(toJson(responseFromJson(Json::parse(line))).dump(), line);
}

/// The raw `result` bytes of an untraced `ok` reply line.
std::string resultBytes(const std::string& line) {
  const std::string marker = ",\"result\":";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos || line.back() != '}') return "";
  return line.substr(at + marker.size(), line.size() - at - marker.size() - 1);
}

TEST(ServiceServer, PingRoundTrip) {
  Server server(testConfig());
  server.start();
  ASSERT_GT(server.port(), 0);

  ServiceClient client("127.0.0.1", server.port());
  Request request;
  request.op = Op::Ping;
  const Response response = client.request(request);
  EXPECT_EQ(response.status, "ok");
  EXPECT_EQ(response.op, Op::Ping);
  const Json* pong = response.result.find("pong");
  ASSERT_NE(pong, nullptr);
  EXPECT_TRUE(pong->asBool());

  server.stop();
}

// The ISSUE acceptance test: concurrent classify requests from several
// client threads produce identical results, and a follow-up identical
// request is served from the result cache.
TEST(ServiceServer, ConcurrentClassifyIdenticalResultsAndCacheHit) {
  Server server(testConfig());
  server.start();

  constexpr int kClients = 6;
  std::vector<std::string> payloads(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &payloads, &errors, c] {
      try {
        ServiceClient client("127.0.0.1", server.port());
        const Response response = client.request(classifyRequest());
        if (response.status != "ok") {
          errors[static_cast<std::size_t>(c)] =
              "status " + response.status + ": " + response.error;
          return;
        }
        payloads[static_cast<std::size_t>(c)] = response.result.dump();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[static_cast<std::size_t>(c)], "") << "client " << c;
    EXPECT_FALSE(payloads[static_cast<std::size_t>(c)].empty())
        << "client " << c;
  }
  // All concurrent clients saw the same classification.
  const std::set<std::string> distinct(payloads.begin(), payloads.end());
  EXPECT_EQ(distinct.size(), 1u);

  // A follow-up identical request must be a cache hit.
  ServiceClient follower("127.0.0.1", server.port());
  const Response cachedResponse = follower.request(classifyRequest());
  ASSERT_EQ(cachedResponse.status, "ok");
  EXPECT_TRUE(cachedResponse.cached);
  EXPECT_EQ(cachedResponse.result.dump(), *distinct.begin());
  EXPECT_GE(server.engine().cache().stats().hits, 1u);

  // A hit's line is the stored result spliced into the envelope: the
  // canonical dump of the same fields, for ids that need JSON escapes
  // too, carrying the miss's result bytes unchanged.
  Request fresh = classifyRequest(14);
  fresh.id = "miss";
  const std::string missLine = follower.exchangeLine(toJson(fresh).dump());
  expectCanonicalReply(missLine);
  ASSERT_FALSE(responseFromJson(Json::parse(missLine)).cached) << missLine;
  const std::string missResult = resultBytes(missLine);
  ASSERT_FALSE(missResult.empty()) << missLine;
  for (const std::string& id :
       {std::string("q\"uote"), std::string("back\\slash"),
        std::string("ctl\x01\t\n")}) {
    fresh.id = id;
    const std::string hitLine = follower.exchangeLine(toJson(fresh).dump());
    expectCanonicalReply(hitLine);
    const Response hit = responseFromJson(Json::parse(hitLine));
    EXPECT_EQ(hit.id, id);
    EXPECT_TRUE(hit.cached) << hitLine;
    EXPECT_EQ(resultBytes(hitLine), missResult);
  }

  server.stop();
}

TEST(ServiceServer, StatsRequestReportsCounters) {
  Server server(testConfig());
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  client.request(classifyRequest());

  Request statsRequest;
  statsRequest.op = Op::Stats;
  const Response response = client.request(statsRequest);
  ASSERT_EQ(response.status, "ok");
  const Json* ops = response.result.find("ops");
  ASSERT_NE(ops, nullptr);
  const Json* classify = ops->find("classify");
  ASSERT_NE(classify, nullptr);
  EXPECT_EQ(classify->find("requests")->asInt(), 1);
  const Json* cache = response.result.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("entries")->asInt(), 1);

  server.stop();
}

TEST(ServiceServer, StatsIncludesUptimeAndLatencyPercentiles) {
  Server server(testConfig());
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  for (int i = 0; i < 3; ++i) client.request(ping);

  Request statsRequest;
  statsRequest.op = Op::Stats;
  const Response response = client.request(statsRequest);
  ASSERT_EQ(response.status, "ok");

  const Json* uptime = response.result.find("uptime_ms");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GT(uptime->asNumber(), 0.0);

  const Json* pingStats = response.result.find("ops")->find("ping");
  ASSERT_NE(pingStats, nullptr);
  EXPECT_EQ(pingStats->find("requests")->asInt(), 3);
  const double p50 = pingStats->find("p50_latency_ms")->asNumber();
  const double p95 = pingStats->find("p95_latency_ms")->asNumber();
  const double p99 = pingStats->find("p99_latency_ms")->asNumber();
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, pingStats->find("max_latency_ms")->asNumber() + 1e-9);

  server.stop();
}

TEST(ServiceServer, MetricsOpReturnsLintCleanExposition) {
  Server server(testConfig());
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  client.request(ping);
  client.request(ping);

  Request metricsRequest;
  metricsRequest.op = Op::Metrics;
  const Response response = client.request(metricsRequest);
  ASSERT_EQ(response.status, "ok");
  const Json* exposition = response.result.find("exposition");
  ASSERT_NE(exposition, nullptr);
  const std::string& text = exposition->asString();

  std::string lintError;
  EXPECT_TRUE(telemetry::lintPrometheus(text, &lintError)) << lintError;

  // Counters carry the op label; the latency histogram's _count agrees
  // with the number of requests recorded before this scrape.
  EXPECT_NE(text.find("# TYPE pviz_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_requests_total{op=\"ping\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pviz_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_request_latency_ms_count{op=\"ping\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_request_latency_ms_bucket{op=\"ping\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pviz_uptime_ms"), std::string::npos);
  EXPECT_NE(text.find("pviz_result_cache_entries"), std::string::npos);

  // The server-side helper renders the same registry.
  std::string direct = server.prometheusText();
  EXPECT_TRUE(telemetry::lintPrometheus(direct, &lintError)) << lintError;

  server.stop();
}

TEST(ServiceServer, TracedRequestReturnsChromeSpans) {
  Server server(testConfig());
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  Request request = classifyRequest();
  request.trace = true;
  const Response response = client.request(request);
  ASSERT_EQ(response.status, "ok");
  ASSERT_FALSE(response.trace.isNull());

  const Json* events = response.trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->asArray().size(), 2u)
      << "expected kernel phases plus the request span";

  // Every span carries the same trace id; exactly one request-level
  // span wraps the dispatch.
  std::string traceId;
  int requestSpans = 0;
  for (const Json& e : events->asArray()) {
    EXPECT_EQ(e.find("ph")->asString(), "X");
    const std::string id = e.find("args")->find("trace_id")->asString();
    if (traceId.empty()) traceId = id;
    EXPECT_EQ(id, traceId);
    if (e.find("cat")->asString() == "service") {
      ++requestSpans;
      EXPECT_EQ(e.find("name")->asString(), "request/classify");
      EXPECT_EQ(e.find("args")->find("status")->asString(), "ok");
    }
  }
  EXPECT_EQ(requestSpans, 1);
  EXPECT_NE(traceId, "");

  // A traced hit runs nothing, so its trace is exactly the request
  // span, marked as a cache hit, and its line is still canonical.
  const std::string hitLine = client.exchangeLine(toJson(request).dump());
  expectCanonicalReply(hitLine);
  const Response hit = responseFromJson(Json::parse(hitLine));
  ASSERT_EQ(hit.status, "ok");
  EXPECT_TRUE(hit.cached);
  ASSERT_FALSE(hit.trace.isNull());
  const Json::Array& hitEvents = hit.trace.find("traceEvents")->asArray();
  ASSERT_EQ(hitEvents.size(), 1u);
  EXPECT_EQ(hitEvents[0].find("name")->asString(), "request/classify");
  EXPECT_EQ(hitEvents[0].find("args")->find("cache_hit")->asString(), "true");

  // An untraced request gets no trace payload.
  const Response untraced = client.request(classifyRequest());
  EXPECT_TRUE(untraced.trace.isNull());

  server.stop();
}

// Trace-id propagation through a cancelled request: the dump contains
// the request span (tagged cancelled) and no orphan spans from earlier
// requests on the same worker context.
TEST(ServiceServer, CancelledTracedRequestHasNoOrphanSpans) {
  ServerConfig config = testConfig();
  config.workers = 1;  // both requests share one worker context
  config.requestTimeoutMs = 150;
  Server server(config);
  server.start();

  ServiceClient client("127.0.0.1", server.port());

  // First: a traced classify that records kernel phases on the worker's
  // tracer and establishes a trace id.
  Request warm = classifyRequest();
  warm.trace = true;
  const Response warmResponse = client.request(warm);
  std::string warmTraceId;
  if (warmResponse.ok() && !warmResponse.trace.isNull()) {
    const auto& events = warmResponse.trace.find("traceEvents")->asArray();
    ASSERT_FALSE(events.empty());
    warmTraceId = events[0].find("args")->find("trace_id")->asString();
  }

  // Second: a traced ping whose delay outlives the request budget — the
  // engine's post-delay cancellation poll fires mid-dispatch.
  Request doomed;
  doomed.op = Op::Ping;
  doomed.delayMs = 600;
  doomed.trace = true;
  const Response response = client.request(doomed);
  EXPECT_EQ(response.status, "error");
  ASSERT_FALSE(response.trace.isNull());
  EXPECT_GE(server.metrics().value(ServiceMetrics::kCancelled), 1u);

  const auto& events = response.trace.find("traceEvents")->asArray();
  // Exactly the request span: beginRun cleared the previous request's
  // phases, so nothing from the classify leaks into this dump.
  ASSERT_EQ(events.size(), 1u);
  const Json& span = events[0];
  EXPECT_EQ(span.find("name")->asString(), "request/ping");
  EXPECT_EQ(span.find("cat")->asString(), "service");
  EXPECT_EQ(span.find("args")->find("cancelled")->asString(), "true");
  EXPECT_EQ(span.find("args")->find("status")->asString(), "error");
  const std::string doomedTraceId =
      span.find("args")->find("trace_id")->asString();
  EXPECT_NE(doomedTraceId, "");
  EXPECT_NE(doomedTraceId, warmTraceId)
      << "each request gets its own trace id";

  server.stop();
}

TEST(ServiceServer, MalformedLineGetsErrorResponse) {
  Server server(testConfig());
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  const Json bad = Json::parse(client.exchangeLine("this is not json"));
  EXPECT_EQ(bad.find("status")->asString(), "error");
  EXPECT_FALSE(bad.find("error")->asString().empty());

  // Valid JSON, invalid request (unknown op).
  const Json unknownOp =
      Json::parse(client.exchangeLine("{\"op\":\"frobnicate\"}"));
  EXPECT_EQ(unknownOp.find("status")->asString(), "error");

  // The connection stays usable after errors.
  Request ping;
  ping.op = Op::Ping;
  EXPECT_EQ(client.request(ping).status, "ok");

  server.stop();
}

// Queue depth 1 + one worker + slow pings ⇒ the third concurrent
// request must be refused with an `overloaded` response.
TEST(ServiceServer, OverloadedWhenQueueFull) {
  ServerConfig config = testConfig();
  config.workers = 1;
  config.maxQueueDepth = 1;
  Server server(config);
  server.start();

  Request slowPing;
  slowPing.op = Op::Ping;
  slowPing.delayMs = 400;

  std::vector<std::string> statuses(2);
  // Occupy the worker, then the queue slot.
  std::thread first([&] {
    ServiceClient client("127.0.0.1", server.port());
    statuses[0] = client.request(slowPing).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&] {
    ServiceClient client("127.0.0.1", server.port());
    statuses[1] = client.request(slowPing).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Worker busy, queue full: this one must bounce immediately.
  ServiceClient third("127.0.0.1", server.port());
  Request fastPing;
  fastPing.op = Op::Ping;
  const Response refused = third.request(fastPing);
  EXPECT_EQ(refused.status, "overloaded");

  first.join();
  second.join();
  EXPECT_EQ(statuses[0], "ok");
  EXPECT_EQ(statuses[1], "ok");
  EXPECT_GE(server.metrics().value(ServiceMetrics::kOverloaded), 1u);

  server.stop();
}

/// The member names of a JSON object, in order.
std::vector<std::string> keysOf(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& member : object.asObject()) keys.push_back(member.first);
  return keys;
}

// Pins the shape of the `stats` and `metrics` replies after a server has
// served a miss, a hit, an `overloaded` reply and a bad frame: the exact
// `stats` key order, and every exposition sample name with its label keys.
TEST(ServiceServer, StatsAndMetricsShapeIsPinned) {
  ServerConfig config = testConfig();
  config.workers = 1;
  config.maxQueueDepth = 1;
  Server server(config);
  server.start();

  ServiceClient client("127.0.0.1", server.port());
  ASSERT_FALSE(client.request(classifyRequest()).cached);
  ASSERT_TRUE(client.request(classifyRequest()).cached);

  // Occupy the worker and the queue slot, then bounce one request.
  Request slowPing;
  slowPing.op = Op::Ping;
  slowPing.delayMs = 300;
  std::thread first([&] {
    ServiceClient c("127.0.0.1", server.port());
    EXPECT_EQ(c.request(slowPing).status, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread second([&] {
    ServiceClient c("127.0.0.1", server.port());
    EXPECT_EQ(c.request(slowPing).status, "ok");
  });
  Request stats;
  stats.op = Op::Stats;
  for (int i = 0; i < 100; ++i) {
    if (client.request(stats).result.find("queue_depth")->asNumber() == 1.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Request fastPing;
  fastPing.op = Op::Ping;
  EXPECT_EQ(client.request(fastPing).status, "overloaded");
  first.join();
  second.join();

  MisbehavingClient bad("127.0.0.1", server.port());
  ASSERT_TRUE(bad.sendRaw("not json\n"));
  EXPECT_NE(bad.readLine(3000).find("\"error\""), std::string::npos);

  const Json reply = client.request(stats).result;
  EXPECT_EQ(keysOf(reply),
            (std::vector<std::string>{
                "uptime_ms", "total_requests", "overloaded", "bad_requests",
                "timeouts", "cancelled", "rejected_frames", "shed_connections",
                "claims_granted", "claims_declined", "queue_depth",
                "max_queue_depth", "connections_accepted",
                "connections_active", "ops", "cache", "energy",
                "events_emitted"}));
  EXPECT_EQ(keysOf(*reply.find("ops")->find("classify")),
            (std::vector<std::string>{
                "requests", "errors", "cache_hits", "mean_latency_ms",
                "max_latency_ms", "p50_latency_ms", "p95_latency_ms",
                "p99_latency_ms"}));
  EXPECT_EQ(keysOf(*reply.find("cache")),
            (std::vector<std::string>{"hits", "misses", "insertions",
                                      "evictions", "entries", "bytes"}));
  EXPECT_EQ(keysOf(*reply.find("energy")),
            (std::vector<std::string>{"total_joules", "overlap_joules",
                                      "requests", "joules_per_request",
                                      "by_algorithm", "by_cap"}));
  EXPECT_EQ(reply.find("overloaded")->asNumber(), 1.0);
  EXPECT_EQ(reply.find("bad_requests")->asNumber(), 1.0);

  // Every sample name with its label keys, e.g. "x_bucket{le,op}".
  Request metrics;
  metrics.op = Op::Metrics;
  const std::string text =
      client.request(metrics).result.find("exposition")->asString();
  std::set<std::string> shapes;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::string line = text.substr(at, text.find('\n', at) - at);
    at += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t brace = line.find('{');
    std::string shape = line.substr(0, std::min(brace, line.find(' ')));
    if (brace != std::string::npos) {
      std::set<std::string> labelKeys;
      const std::string block = line.substr(brace + 1, line.find('}') - brace - 1);
      for (std::size_t from = 0; from < block.size();) {
        const std::size_t eq = block.find('=', from);
        labelKeys.insert(block.substr(from, eq - from));
        const std::size_t close = block.find('"', block.find('"', eq) + 1);
        from = close + 2;  // past the closing quote and the comma
      }
      std::string joined;
      for (const std::string& key : labelKeys) {
        joined += (joined.empty() ? "" : ",") + key;
      }
      shape += "{" + joined + "}";
    }
    shapes.insert(shape);
  }
  std::string all;
  for (const std::string& shape : shapes) all += shape + "\n";
  EXPECT_EQ(all,
            "pviz_bad_requests_total\n"
            "pviz_cancelled_total\n"
            "pviz_claims_declined_total\n"
            "pviz_claims_granted_total\n"
            "pviz_connections_accepted_total\n"
            "pviz_connections_active\n"
            "pviz_energy_overlap_microjoules_total\n"
            "pviz_energy_requests_total\n"
            "pviz_overloaded_total\n"
            "pviz_queue_depth\n"
            "pviz_queue_depth_max\n"
            "pviz_rejected_frames_total\n"
            "pviz_request_cache_hits_total{op}\n"
            "pviz_request_errors_total{op}\n"
            "pviz_request_joules_bucket{le}\n"
            "pviz_request_joules_count\n"
            "pviz_request_joules_sum\n"
            "pviz_request_latency_ms_bucket{le,op}\n"
            "pviz_request_latency_ms_count{op}\n"
            "pviz_request_latency_ms_sum{op}\n"
            "pviz_requests_total{op}\n"
            "pviz_result_cache_bytes\n"
            "pviz_result_cache_entries\n"
            "pviz_result_cache_evictions\n"
            "pviz_result_cache_hits\n"
            "pviz_result_cache_insertions\n"
            "pviz_result_cache_misses\n"
            "pviz_shed_connections_total\n"
            "pviz_timeouts_total\n"
            "pviz_uptime_ms\n");

  server.stop();
}

// Cache hits and stats run nothing, so they are answered at admission
// even while the worker and the queue are both taken; work that runs
// is still refused.
TEST(ServiceServer, CachedHitsAndStatsSkipAFullQueue) {
  ServerConfig config = testConfig();
  config.workers = 1;
  config.maxQueueDepth = 1;
  Server server(config);
  server.start();

  ServiceClient warm("127.0.0.1", server.port());
  const Response miss = warm.request(classifyRequest());
  ASSERT_EQ(miss.status, "ok");
  ASSERT_FALSE(miss.cached);

  Request slowPing;
  slowPing.op = Op::Ping;
  slowPing.delayMs = 400;
  std::vector<std::string> statuses(2);
  // Occupy the worker, then the queue slot.
  std::thread first([&] {
    ServiceClient client("127.0.0.1", server.port());
    statuses[0] = client.request(slowPing).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread second([&] {
    ServiceClient client("127.0.0.1", server.port());
    statuses[1] = client.request(slowPing).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ServiceClient third("127.0.0.1", server.port());
  const auto start = std::chrono::steady_clock::now();
  const Response hit = third.request(classifyRequest());
  EXPECT_EQ(hit.status, "ok");
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.result.dump(), miss.result.dump());
  Request statsRequest;
  statsRequest.op = Op::Stats;
  EXPECT_EQ(third.request(statsRequest).status, "ok");
  const double waitedMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(waitedMs, 150.0) << "answered behind the queued pings";

  Request fastPing;
  fastPing.op = Op::Ping;
  EXPECT_EQ(third.request(fastPing).status, "overloaded");

  first.join();
  second.join();
  EXPECT_EQ(statuses[0], "ok");
  EXPECT_EQ(statuses[1], "ok");

  server.stop();
}

// One miss and N hits of one key, over two connections: the cache,
// the per-op counters and the energy section each count every request
// once, and only the miss ran anything to credit joules to.
TEST(ServiceServer, EachRequestIsCountedOnce) {
  Server server(testConfig());
  server.start();

  Request study;
  study.op = Op::Study;
  study.algorithms = {core::Algorithm::Contour};
  study.sizes = {8};
  study.capsWatts = {120.0, 80.0};
  study.cycles = 2;
  ServiceClient a("127.0.0.1", server.port());
  ServiceClient b("127.0.0.1", server.port());
  const Response miss = a.request(study);
  ASSERT_EQ(miss.status, "ok");
  ASSERT_FALSE(miss.cached);
  constexpr int kHits = 5;
  for (int i = 0; i < kHits; ++i) {
    const Response hit = (i % 2 == 0 ? b : a).request(study);
    ASSERT_EQ(hit.status, "ok");
    EXPECT_TRUE(hit.cached);
  }

  const ResultCache::Stats cache = server.engine().cache().stats();
  EXPECT_EQ(cache.hits, static_cast<std::uint64_t>(kHits));
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.insertions, 1u);

  Request statsRequest;
  statsRequest.op = Op::Stats;
  const Response stats = a.request(statsRequest);
  ASSERT_EQ(stats.status, "ok");
  const Json* studyOp = stats.result.find("ops")->find("study");
  ASSERT_NE(studyOp, nullptr);
  EXPECT_EQ(studyOp->find("requests")->asInt(), kHits + 1);
  EXPECT_EQ(studyOp->find("cache_hits")->asInt(), kHits);
  EXPECT_EQ(stats.result.find("energy")->find("requests")->asInt(), 1);

  server.stop();
}

// stop() must drain: a request already queued when stop() begins still
// gets its response before the socket closes.
TEST(ServiceServer, StopDrainsQueuedRequests) {
  ServerConfig config = testConfig();
  config.workers = 1;
  Server server(config);
  server.start();

  Request slowPing;
  slowPing.op = Op::Ping;
  slowPing.delayMs = 300;

  std::string status;
  std::thread inFlight([&] {
    ServiceClient client("127.0.0.1", server.port());
    status = client.request(slowPing).status;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.stop();
  inFlight.join();
  EXPECT_EQ(status, "ok");
  EXPECT_FALSE(server.running());

  // New connections are refused once stopped.
  EXPECT_THROW(ServiceClient("127.0.0.1", server.port()), Error);
}

// --- Chaos suite ----------------------------------------------------------
// Every scenario: the fault gets a clean `error` reply or disconnect,
// the right counter moves, the server keeps serving, and stop() leaves
// zero active connections (no leaked reader threads).

/// Poll until the server has reaped the chaos connections (the reader
/// marks itself done asynchronously) or ~2 s pass.
void waitForActiveConnections(const Server& server, std::size_t want) {
  for (int i = 0; i < 100; ++i) {
    if (server.metrics().value(ServiceMetrics::kConnectionsActive) ==
        static_cast<double>(want)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(ServiceChaos, CompleteOversizedFrameRejectedFrameOnly) {
  ServerConfig config = testConfig();
  config.maxFrameBytes = 256;
  Server server(config);
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  // A complete frame over the bound (newline intact): the frame is
  // rejected but the connection survives.
  ASSERT_TRUE(client.sendRaw(std::string(400, 'x') + "\n"));
  const std::string reply = client.readLine(3000);
  EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("frame exceeds"), std::string::npos) << reply;
  EXPECT_GE(server.metrics().value(ServiceMetrics::kRejectedFrames), 1u);

  // Same connection still serves a valid request.
  ASSERT_TRUE(client.sendRaw("{\"op\":\"ping\",\"id\":\"after\"}\n"));
  EXPECT_NE(client.readLine(3000).find("\"ok\""), std::string::npos);

  server.stop();
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

TEST(ServiceChaos, UnboundedPartialFrameDropsConnection) {
  ServerConfig config = testConfig();
  config.maxFrameBytes = 256;
  Server server(config);
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  // No newline ever: the server must reply once and cut the connection
  // instead of buffering without bound.
  ASSERT_TRUE(client.sendRaw(std::string(1024, 'y')));
  const std::string reply = client.readLine(3000);
  EXPECT_NE(reply.find("frame exceeds"), std::string::npos) << reply;
  EXPECT_EQ(client.readLine(500), "");  // connection closed behind it
  EXPECT_GE(server.metrics().value(ServiceMetrics::kRejectedFrames), 1u);

  // The server is unimpressed and keeps serving new clients.
  ServiceClient fresh("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  EXPECT_EQ(fresh.request(ping).status, "ok");

  server.stop();
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

TEST(ServiceChaos, DeeplyNestedJsonGetsParseError) {
  Server server(testConfig());
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  // 100k-deep nesting: well under the frame bound, far over the depth
  // bound — pre-fix this overflowed the parser's stack and killed the
  // process.
  const std::string bomb(100000, '[');
  ASSERT_TRUE(client.sendRaw(bomb + "\n"));
  const std::string reply = client.readLine(3000);
  EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("nesting"), std::string::npos) << reply;
  EXPECT_GE(server.metrics().value(ServiceMetrics::kBadRequests), 1u);

  // The connection survives a depth rejection (the frame was complete).
  ASSERT_TRUE(client.sendRaw("{\"op\":\"ping\",\"id\":\"deep\"}\n"));
  EXPECT_NE(client.readLine(3000).find("\"ok\""), std::string::npos);

  server.stop();
}

TEST(ServiceChaos, SlowLorisFrameTimesOut) {
  ServerConfig config = testConfig();
  config.frameTimeoutMs = 200;
  Server server(config);
  server.start();

  MisbehavingClient loris("127.0.0.1", server.port());
  // Start a frame and stall: the reader must reply and cut us off after
  // the frame deadline, not wait forever.
  ASSERT_TRUE(loris.sendRaw("{\"op\":\"ping\",\"id\":\"lo"));
  const std::string reply = loris.readLine(3000);
  EXPECT_NE(reply.find("frame timeout"), std::string::npos) << reply;
  EXPECT_EQ(loris.readLine(500), "");  // then EOF
  EXPECT_GE(server.metrics().value(ServiceMetrics::kTimeouts), 1u);

  // Other clients are unaffected.
  ServiceClient fresh("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  EXPECT_EQ(fresh.request(ping).status, "ok");

  server.stop();
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

// The frame deadline runs from the frame's first byte, not from the
// start of the poll that waited for it: a frame begun 60 ms after
// connect and finished 120 ms later is inside a 150 ms deadline.
TEST(ServiceChaos, FrameDeadlineStartsAtFirstByte) {
  ServerConfig config = testConfig();
  config.frameTimeoutMs = 150;
  Server server(config);
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(client.sendRaw("{\"op\":\"ping\",\"id\":\"late\""));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(client.sendRaw("}\n"));
  const std::string reply = client.readLine(3000);
  EXPECT_NE(reply.find("\"ok\""), std::string::npos) << reply;
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kTimeouts), 0u);

  server.stop();
}

// A client that pipelines requests and never reads their replies fills
// the socket buffers until the server's reply write blocks.  That write
// must give up after the frame deadline, so the drain does not wait on
// the client.
TEST(ServiceChaos, StopDoesNotWaitForAClientThatStopsReading) {
  ServerConfig config = testConfig();
  config.frameTimeoutMs = 300;
  Server server(config);
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  const std::string line =
      "{\"op\":\"classify\",\"algorithm\":\"contour\",\"size\":12}\n";
  ASSERT_TRUE(client.sendRaw(line));  // the miss: every later one hits
  const std::size_t replyBytes = client.readLine(30000).size() + 1;
  ASSERT_GT(replyBytes, 1u);
  // A small receive buffer, so about 5 MB of replies cannot fit in the
  // two sockets' buffers (a send buffer autotunes to at most 4 MiB).
  const int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof rcvbuf),
            0);
  std::string pipelined;
  for (std::size_t bytes = 0; bytes < (5u << 20); bytes += replyBytes) {
    pipelined += line;
  }
  std::thread sender([&] { client.sendRaw(pipelined); });

  // Wait until the server stops answering: its reply write is blocked.
  std::uint64_t answered = 0;
  for (int stable = 0; stable < 4;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = static_cast<std::uint64_t>(
        server.metrics().value(ServiceMetrics::kTotalRequests));
    stable = now == answered && now > 1 ? stable + 1 : 0;
    answered = now;
  }

  const auto began = std::chrono::steady_clock::now();
  auto stopped = std::async(std::launch::async, [&] { server.stop(); });
  const bool returned =
      stopped.wait_for(std::chrono::milliseconds(config.frameTimeoutMs +
                                                 1000)) ==
      std::future_status::ready;
  const double stopMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - began)
                            .count();
  EXPECT_TRUE(returned) << "stop() still blocked after " << stopMs << " ms";
  // Release whatever is still blocked before joining it.
  ::shutdown(client.fd(), SHUT_RDWR);
  sender.join();
  client.closeAbruptly();
  stopped.get();

  EXPECT_EQ(server.metrics().value(ServiceMetrics::kTimeouts), 1u);
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

TEST(ServiceChaos, IdleConnectionTimesOut) {
  ServerConfig config = testConfig();
  config.idleTimeoutMs = 200;
  Server server(config);
  server.start();

  MisbehavingClient idle("127.0.0.1", server.port());
  const std::string reply = idle.readLine(3000);  // send nothing at all
  EXPECT_NE(reply.find("idle timeout"), std::string::npos) << reply;
  EXPECT_GE(server.metrics().value(ServiceMetrics::kTimeouts), 1u);

  server.stop();
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

TEST(ServiceChaos, MidFrameDisconnectsLeaveNoLeakedReaders) {
  Server server(testConfig());
  server.start();

  // A volley of clients that die mid-frame, some with an RST.
  for (int i = 0; i < 8; ++i) {
    MisbehavingClient client("127.0.0.1", server.port());
    client.sendRaw("{\"op\":\"classify\",\"algorithm\":\"cont");
    if (i % 2 == 0) {
      client.closeAbruptly();
    }  // else: destructor FIN-closes
  }
  waitForActiveConnections(server, 0);

  // Server is intact and the readers are gone.
  ServiceClient fresh("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  EXPECT_EQ(fresh.request(ping).status, "ok");

  server.stop();
  EXPECT_EQ(server.metrics().value(ServiceMetrics::kConnectionsActive), 0u);
}

TEST(ServiceChaos, GarbageBytesAnsweredThenConnectionRecovers) {
  Server server(testConfig());
  server.start();

  MisbehavingClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.sendRaw("\x01\x02\x7f not json {]\n"));
  const std::string reply = client.readLine(3000);
  EXPECT_NE(reply.find("\"error\""), std::string::npos) << reply;
  EXPECT_GE(server.metrics().value(ServiceMetrics::kBadRequests), 1u);

  // An intact subsequent request on the same connection.
  ASSERT_TRUE(client.sendRaw("{\"op\":\"ping\",\"id\":\"g2\"}\n"));
  EXPECT_NE(client.readLine(3000).find("\"ok\""), std::string::npos);

  server.stop();
}

TEST(ServiceChaos, RequestBudgetExpiresInQueue) {
  ServerConfig config = testConfig();
  config.workers = 1;
  config.requestTimeoutMs = 150;
  Server server(config);
  server.start();

  Request slowPing;
  slowPing.op = Op::Ping;
  slowPing.delayMs = 500;

  // Occupy the only worker…
  std::thread first([&] {
    ServiceClient client("127.0.0.1", server.port());
    client.request(slowPing);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // …so this request waits ~400 ms in the queue, past its 150 ms budget.
  ServiceClient second("127.0.0.1", server.port());
  Request fastPing;
  fastPing.op = Op::Ping;
  const Response expired = second.request(fastPing);
  EXPECT_EQ(expired.status, "error");
  EXPECT_NE(expired.error.find("deadline exceeded"), std::string::npos)
      << expired.error;
  EXPECT_GE(server.metrics().value(ServiceMetrics::kTimeouts), 1u);

  first.join();
  server.stop();
}

TEST(ServiceChaos, ConnectionsPastBoundAreShed) {
  ServerConfig config = testConfig();
  config.maxConnections = 1;
  Server server(config);
  server.start();

  ServiceClient keeper("127.0.0.1", server.port());
  Request ping;
  ping.op = Op::Ping;
  ASSERT_EQ(keeper.request(ping).status, "ok");

  // Second connection: one `overloaded` line, then close.
  MisbehavingClient shed("127.0.0.1", server.port());
  const std::string reply = shed.readLine(3000);
  EXPECT_NE(reply.find("overloaded"), std::string::npos) << reply;
  EXPECT_EQ(shed.readLine(500), "");  // closed
  EXPECT_GE(server.metrics().value(ServiceMetrics::kShedConnections), 1u);

  // The admitted connection still works.
  EXPECT_EQ(keeper.request(ping).status, "ok");

  server.stop();
}

TEST(ServiceChaos, StatsReportsRobustnessCounters) {
  ServerConfig config = testConfig();
  config.maxFrameBytes = 256;
  config.frameTimeoutMs = 200;
  Server server(config);
  server.start();

  {
    MisbehavingClient oversized("127.0.0.1", server.port());
    oversized.sendRaw(std::string(400, 'x') + "\n");
    oversized.readLine(2000);
  }
  {
    MisbehavingClient loris("127.0.0.1", server.port());
    loris.sendRaw("{\"op");
    loris.readLine(2000);
  }
  waitForActiveConnections(server, 0);

  ServiceClient client("127.0.0.1", server.port());
  Request statsRequest;
  statsRequest.op = Op::Stats;
  const Response response = client.request(statsRequest);
  ASSERT_EQ(response.status, "ok");
  EXPECT_GE(response.result.find("timeouts")->asInt(), 1);
  EXPECT_GE(response.result.find("rejected_frames")->asInt(), 1);
  ASSERT_NE(response.result.find("shed_connections"), nullptr);

  server.stop();
}

#ifdef POWERVIZ_SERVE_BIN
// Spawn the real powerviz_serve binary, talk to it over TCP, send
// SIGINT, and require a clean (drained) exit with status 0.
TEST(ServiceServer, ServeBinaryDrainsOnSigint) {
  int outPipe[2];
  ASSERT_EQ(pipe(outPipe), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: stdout → pipe, exec the server on an ephemeral port.
    dup2(outPipe[1], STDOUT_FILENO);
    close(outPipe[0]);
    close(outPipe[1]);
    execl(POWERVIZ_SERVE_BIN, POWERVIZ_SERVE_BIN, "--port", "0", "--light",
          "--cache", "none", "--quiet", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  close(outPipe[1]);

  // Scrape "powerviz_serve listening port=NNNN" from the child's stdout.
  std::string banner;
  char chunk[256];
  int port = 0;
  while (port == 0) {
    const ssize_t n = read(outPipe[0], chunk, sizeof chunk);
    ASSERT_GT(n, 0) << "server exited before printing its port";
    banner.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = banner.find("port=");
    if (at != std::string::npos &&
        banner.find('\n', at) != std::string::npos) {
      port = std::atoi(banner.c_str() + at + 5);
    }
  }
  ASSERT_GT(port, 0);

  {
    ServiceClient client("127.0.0.1", port);
    Request ping;
    ping.op = Op::Ping;
    EXPECT_EQ(client.request(ping).status, "ok");
  }

  ASSERT_EQ(kill(pid, SIGINT), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  close(outPipe[0]);
}
#endif  // POWERVIZ_SERVE_BIN

}  // namespace
}  // namespace pviz::service
