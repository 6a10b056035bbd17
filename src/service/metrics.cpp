#include "service/metrics.h"

#include <cstdio>

#include "telemetry/prometheus.h"

namespace pviz::service {

namespace {

using telemetry::EventKind;

struct StatRow {
  const char* key;     ///< `stats` key
  const char* metric;  ///< Prometheus family; nullptr when there is none
  const char* help;
  bool gauge;
  EventKind kind;      ///< the event count() logs...
  const char* event;   ///< ...with this detail; nullptr: it logs none
};

/// Every server-wide counter and gauge, indexed by ServiceMetrics::Stat.
constexpr StatRow kStats[ServiceMetrics::kStatCount] = {
    {"uptime_ms", "pviz_uptime_ms", "Milliseconds since server start", true,
     EventKind::Lifecycle, nullptr},
    {"total_requests", nullptr, nullptr, false, EventKind::Lifecycle, nullptr},
    {"overloaded", "pviz_overloaded_total", "Admission-control rejections",
     false, EventKind::Overloaded, "admission control rejected a request"},
    {"bad_requests", "pviz_bad_requests_total",
     "Frames that did not parse to a request", false, EventKind::Lifecycle,
     nullptr},
    {"timeouts", "pviz_timeouts_total",
     "Connection/request deadline violations", false, EventKind::Timeout,
     "connection or request deadline expired"},
    {"cancelled", "pviz_cancelled_total",
     "Kernels stopped mid-run by cancellation", false, EventKind::Cancelled,
     "kernel stopped mid-run by cancellation"},
    {"rejected_frames", "pviz_rejected_frames_total",
     "Frames over the size bound", false, EventKind::Lifecycle, nullptr},
    {"shed_connections", "pviz_shed_connections_total",
     "Connections shed at accept time", false, EventKind::ConnectionShed,
     "connection shed at the accept limit"},
    {"claims_granted", "pviz_claims_granted_total",
     "Fleet work-unit claims granted", false, EventKind::Lifecycle, nullptr},
    {"claims_declined", "pviz_claims_declined_total",
     "Fleet work-unit claims declined under load", false,
     EventKind::Lifecycle, nullptr},
    {"queue_depth", "pviz_queue_depth", "Request queue depth", true,
     EventKind::Lifecycle, nullptr},
    {"max_queue_depth", "pviz_queue_depth_max",
     "Request queue depth high-water mark", true, EventKind::Lifecycle,
     nullptr},
    {"connections_accepted", "pviz_connections_accepted_total",
     "Connections accepted", false, EventKind::Lifecycle, nullptr},
    {"connections_active", "pviz_connections_active",
     "Currently open connections", true, EventKind::Lifecycle, nullptr},
};

/// One row of the `stats` cache section; its gauge is
/// pviz_result_cache_<key>, refreshed at scrape time.
struct CacheRow {
  const char* key;
  const char* help;
  double value;
};

std::array<CacheRow, 6> cacheRows(const ResultCache::Stats& cache) {
  return {{{"hits", "Result cache hits", static_cast<double>(cache.hits)},
           {"misses", "Result cache misses",
            static_cast<double>(cache.misses)},
           {"insertions", "Result cache insertions",
            static_cast<double>(cache.insertions)},
           {"evictions", "Result cache evictions",
            static_cast<double>(cache.evictions)},
           {"entries", "Result cache live entries",
            static_cast<double>(cache.entries)},
           {"bytes", "Result cache resident bytes",
            static_cast<double>(cache.bytes)}}};
}

}  // namespace

ServiceMetrics::ServiceMetrics() : start_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const telemetry::Labels labels = {{"op", opToken(static_cast<Op>(i))}};
    OpInstruments& inst = perOp_[i];
    inst.requests = &registry_.counter("pviz_requests_total", labels,
                                       "Completed requests per operation");
    inst.errors = &registry_.counter("pviz_request_errors_total", labels,
                                     "Requests answered with status=error");
    inst.cacheHits =
        &registry_.counter("pviz_request_cache_hits_total", labels,
                           "Requests served from the result cache");
    inst.latencyMs = &registry_.histogram(
        "pviz_request_latency_ms", labels,
        "Request service latency in milliseconds");
  }
  for (std::size_t i = 0; i < kStatCount; ++i) {
    const StatRow& row = kStats[i];
    if (row.metric == nullptr) continue;
    if (row.gauge) {
      gauges_[i] = &registry_.gauge(row.metric, {}, row.help);
    } else {
      counters_[i] = &registry_.counter(row.metric, {}, row.help);
    }
  }
}

void ServiceMetrics::recordRequest(Op op, double latencyMs, bool cached,
                                   bool error) {
  OpInstruments& inst = perOp_[static_cast<std::size_t>(op)];
  inst.requests->inc();
  if (error) inst.errors->inc();
  if (cached) inst.cacheHits->inc();
  inst.latencyMs->record(latencyMs);
  if (slo_.hasObjectives() &&
      slo_.record(opToken(op), latencyMs, error) && !error) {
    // Errors already show up as violations in the burn rate; the event
    // ring's slow_request entries are for latency breaches specifically.
    events_.emit(telemetry::EventKind::SlowRequest, opToken(op),
                 "latency above p99 objective", latencyMs);
  }
}

void ServiceMetrics::count(Stat stat) {
  counters_[stat]->inc();
  if (kStats[stat].event != nullptr) {
    events_.emit(kStats[stat].kind, "", kStats[stat].event);
  }
}

double ServiceMetrics::value(Stat stat) const {
  if (stat == kUptimeMs) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  if (stat == kTotalRequests) {
    std::uint64_t total = 0;
    for (const OpInstruments& inst : perOp_) total += inst.requests->value();
    return static_cast<double>(total);
  }
  return counters_[stat] != nullptr
             ? static_cast<double>(counters_[stat]->value())
             : gauges_[stat]->value();
}

void ServiceMetrics::connectionOpened() {
  counters_[kConnectionsAccepted]->inc();
  gauges_[kConnectionsActive]->add(1.0);
}

void ServiceMetrics::connectionClosed() {
  gauges_[kConnectionsActive]->add(-1.0);
}

void ServiceMetrics::recordQueueDepth(std::size_t depth) {
  gauges_[kQueueDepth]->set(static_cast<double>(depth));
  gauges_[kMaxQueueDepth]->ratchetMax(static_cast<double>(depth));
}

Json ServiceMetrics::statsJson(const ResultCache::Stats& cache) const {
  Json out = Json::object();
  for (std::size_t i = 0; i < kStatCount; ++i) {
    out.set(kStats[i].key, value(static_cast<Stat>(i)));
  }
  Json ops = Json::object();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const OpInstruments& inst = perOp_[i];
    const std::uint64_t requests = inst.requests->value();
    if (requests == 0) continue;
    const telemetry::Histogram::Snapshot lat = inst.latencyMs->snapshot();
    Json op = Json::object();
    op.set("requests", static_cast<double>(requests));
    op.set("errors", static_cast<double>(inst.errors->value()));
    op.set("cache_hits", static_cast<double>(inst.cacheHits->value()));
    op.set("mean_latency_ms", lat.mean());
    op.set("max_latency_ms", lat.maxValue);
    op.set("p50_latency_ms", lat.percentile(0.50));
    op.set("p95_latency_ms", lat.percentile(0.95));
    op.set("p99_latency_ms", lat.percentile(0.99));
    ops.set(opToken(static_cast<Op>(i)), std::move(op));
  }
  out.set("ops", std::move(ops));
  Json cacheJson = Json::object();
  for (const CacheRow& row : cacheRows(cache)) cacheJson.set(row.key, row.value);
  out.set("cache", std::move(cacheJson));

  const telemetry::EnergyAttributor::Summary energy = energy_.summary();
  Json energyJson = Json::object();
  energyJson.set("total_joules", energy.totalJoules);
  energyJson.set("overlap_joules", energy.overlapJoules);
  energyJson.set("requests", static_cast<double>(energy.requests));
  energyJson.set("joules_per_request", energy.joulesPerRequest());
  Json byAlgorithm = Json::object();
  for (const auto& [algorithm, alg] : energy.byAlgorithm) {
    Json a = Json::object();
    a.set("joules", alg.joules);
    a.set("runs", static_cast<double>(alg.runs));
    a.set("requests", static_cast<double>(alg.requests));
    a.set("joules_per_request", alg.joulesPerRequest());
    byAlgorithm.set(algorithm, std::move(a));
  }
  energyJson.set("by_algorithm", std::move(byAlgorithm));
  Json byCap = Json::object();
  for (const auto& [capWatts, cap] : energy.byCap) {
    Json c = Json::object();
    c.set("joules", cap.joules);
    c.set("runs", static_cast<double>(cap.runs));
    char capKey[32];
    std::snprintf(capKey, sizeof(capKey), "%g", capWatts);
    byCap.set(capKey, std::move(c));
  }
  energyJson.set("by_cap", std::move(byCap));
  out.set("energy", std::move(energyJson));

  if (slo_.hasObjectives()) {
    Json sloJson = Json::object();
    for (const std::string& op : slo_.objectiveOps()) {
      const telemetry::SloTracker::Window window = slo_.burn(op);
      Json s = Json::object();
      s.set("p99_objective_ms", slo_.objectiveMs(op));
      s.set("burn_rate_5m", window.shortWindow.burnRate);
      s.set("burn_rate_1h", window.longWindow.burnRate);
      s.set("requests_5m",
            static_cast<double>(window.shortWindow.requests));
      s.set("violations_5m",
            static_cast<double>(window.shortWindow.violations));
      s.set("requests_1h", static_cast<double>(window.longWindow.requests));
      s.set("violations_1h",
            static_cast<double>(window.longWindow.violations));
      sloJson.set(op, std::move(s));
    }
    out.set("slo", std::move(sloJson));
  }

  out.set("events_emitted", static_cast<double>(events_.totalEmitted()));
  return out;
}

std::string ServiceMetrics::prometheusText(const ResultCache::Stats& cache) {
  gauges_[kUptimeMs]->set(value(kUptimeMs));
  for (const CacheRow& row : cacheRows(cache)) {
    registry_.gauge(std::string("pviz_result_cache_") + row.key, {}, row.help)
        .set(row.value);
  }
  // SLO burn rates are derived at scrape time from the bucket ring —
  // the gauges only exist for ops with declared objectives.
  for (const std::string& op : slo_.objectiveOps()) {
    const telemetry::SloTracker::Window window = slo_.burn(op);
    registry_
        .gauge("pviz_slo_objective_ms", {{"op", op}},
               "Declared p99 latency objective in milliseconds")
        .set(slo_.objectiveMs(op));
    registry_
        .gauge("pviz_slo_burn_rate", {{"op", op}, {"window", "5m"}},
               "Error-budget burn rate (1.0 = spending the 1% budget "
               "exactly at the sustainable rate)")
        .set(window.shortWindow.burnRate);
    registry_
        .gauge("pviz_slo_burn_rate", {{"op", op}, {"window", "1h"}},
               "Error-budget burn rate (1.0 = spending the 1% budget "
               "exactly at the sustainable rate)")
        .set(window.longWindow.burnRate);
  }
  return telemetry::renderPrometheus(registry_);
}

}  // namespace pviz::service
