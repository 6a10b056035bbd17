// Per-request observability for the service layer.
//
// Built on telemetry::MetricRegistry: per-operation counters (requests,
// errors, cache hits) and a log-scale latency histogram per op, plus
// server-wide counters and gauges (queue depth, admission rejections,
// connections).  The hot path — recordRequest and friends — is now
// lock-free sharded atomics instead of the old mutex-guarded
// RunningStats accumulators; merging happens on snapshot (the in-band
// `stats` reply) or scrape (the `metrics` op, Prometheus text format).
//
// Each ServiceMetrics owns its own registry so concurrent servers in a
// test process never share counters; the process-wide
// telemetry::MetricRegistry::global() stays free for tools.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "service/json.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "telemetry/energy_attribution.h"
#include "telemetry/event_ring.h"
#include "telemetry/metric_registry.h"
#include "telemetry/slo_tracker.h"

namespace pviz::service {

class ServiceMetrics {
 public:
  /// Number of wire operations (indexed by Op).
  static constexpr std::size_t kOpCount = 12;

  ServiceMetrics();

  /// Server-wide counters and gauges, in `stats` key order.  Each one is
  /// declared once, as a row of kStats in metrics.cpp: its `stats` key,
  /// its Prometheus family and help text, and the event it logs.
  enum Stat : std::size_t {
    kUptimeMs,             ///< wall time since the metrics were created
    kTotalRequests,        ///< completed requests over every op
    kOverloaded,           ///< admission-control rejections
    kBadRequests,          ///< frames that did not parse to a request
    kTimeouts,             ///< deadline violations: idle, a stalled frame
                           ///< or reply write, an expired request budget
    kCancelled,            ///< kernels stopped mid-run by cancellation
    kRejectedFrames,       ///< frames over the size bound
    kShedConnections,      ///< connections shed at accept time
    kClaimsGranted,        ///< fleet work-unit claims granted
    kClaimsDeclined,       ///< fleet claims declined under load
    kQueueDepth,
    kMaxQueueDepth,
    kConnectionsAccepted,
    kConnectionsActive,
    kStatCount
  };

  /// Count one occurrence of a counter row and log its event, if any.
  void count(Stat stat);
  /// The current reading of any row.
  double value(Stat stat) const;

  /// One completed request (any status but "overloaded").  Feeds the op
  /// instruments and, when the op has an SLO objective, the burn-rate
  /// buckets; a violating request is logged to the event ring.
  void recordRequest(Op op, double latencyMs, bool cached, bool error);

  void connectionOpened();
  void connectionClosed();

  /// Queue depth after a push/pop (tracks the high-water mark).
  void recordQueueDepth(std::size_t depth);

  /// The `stats` payload: every kStats row, the per-op and result-cache
  /// sections, and the energy-attribution and SLO sections.
  Json statsJson(const ResultCache::Stats& cache) const;

  /// The `metrics` op payload: the full registry in Prometheus text
  /// exposition format, with the result-cache, uptime and SLO burn-rate
  /// gauges refreshed from `cache` at scrape time.
  std::string prometheusText(const ResultCache::Stats& cache);

  /// Latency objectives; declare via slo().setObjective() before the
  /// server starts serving.
  telemetry::SloTracker& slo() { return slo_; }
  const telemetry::SloTracker& slo() const { return slo_; }

  /// Structured event log (`events` op).
  telemetry::EventRing& events() { return events_; }
  const telemetry::EventRing& events() const { return events_; }

  /// Per-request energy attribution (`stats` energy section).
  telemetry::EnergyAttributor& energy() { return energy_; }

 private:
  struct OpInstruments {
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* cacheHits = nullptr;
    telemetry::Histogram* latencyMs = nullptr;
  };

  telemetry::MetricRegistry registry_;
  std::array<OpInstruments, kOpCount> perOp_;
  /// One instrument per kStats row: a counter or a gauge (neither for
  /// the rows computed on read, uptime and total requests).
  std::array<telemetry::Counter*, kStatCount> counters_{};
  std::array<telemetry::Gauge*, kStatCount> gauges_{};
  std::chrono::steady_clock::time_point start_;
  telemetry::SloTracker slo_;
  telemetry::EventRing events_;
  telemetry::EnergyAttributor energy_{registry_};
};

}  // namespace pviz::service
