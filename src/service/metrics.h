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

  struct OpSnapshot {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t cacheHits = 0;
    double meanLatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    double p50LatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
  };

  struct Snapshot {
    std::array<OpSnapshot, kOpCount> perOp;  ///< indexed by Op
    std::uint64_t totalRequests = 0;
    std::uint64_t overloaded = 0;       ///< admission-control rejections
    std::uint64_t badRequests = 0;      ///< unparseable frames
    std::uint64_t timeouts = 0;         ///< deadline violations (idle,
                                        ///< stalled frame or reply write,
                                        ///< request budget)
    std::uint64_t cancelled = 0;        ///< kernels stopped mid-run by the
                                        ///< request's cancellation token
    std::uint64_t rejectedFrames = 0;   ///< frames over the size bound
    std::uint64_t shedConnections = 0;  ///< accept-time connection shedding
    std::uint64_t claimsGranted = 0;    ///< fleet work-unit claims granted
    std::uint64_t claimsDeclined = 0;   ///< fleet claims declined (load)
    std::size_t queueDepth = 0;
    std::size_t maxQueueDepth = 0;
    std::uint64_t connectionsAccepted = 0;
    std::size_t connectionsActive = 0;
    double uptimeMs = 0.0;  ///< wall time since the metrics were created
  };

  /// One completed request (any status but "overloaded").  Feeds the op
  /// instruments and, when the op has an SLO objective, the burn-rate
  /// buckets; a violating request is logged to the event ring.
  void recordRequest(Op op, double latencyMs, bool cached, bool error);
  /// One admission-control rejection.
  void recordOverloaded();
  /// One frame that did not parse to a request.
  void recordBadRequest();
  /// One deadline violation: connection idle too long, a started frame
  /// or a reply write that stalled, or a request whose wall-clock budget
  /// expired.
  void recordTimeout();
  /// One request whose kernel was stopped mid-run by its cancellation
  /// token (deadline expiry after dispatch, not while queued).
  void recordCancelled();
  /// One frame dropped for exceeding the size bound.
  void recordRejectedFrame();
  /// One connection shed at accept time (over the connection bound).
  void recordShedConnection();
  /// One fleet work-unit claim, granted or declined.
  void recordClaim(bool granted);

  void connectionOpened();
  void connectionClosed();

  /// Queue depth after a push/pop (tracks the high-water mark).
  void recordQueueDepth(std::size_t depth);

  Snapshot snapshot() const;

  /// The `stats` result payload: this snapshot plus the cache counters.
  static Json toJson(const Snapshot& snapshot,
                     const ResultCache::Stats& cache);

  /// The full `stats` payload: toJson() plus the energy-attribution and
  /// SLO sections this instance tracks.
  Json statsJson(const ResultCache::Stats& cache) const;

  /// The `metrics` op payload: the full registry in Prometheus text
  /// exposition format, with the result-cache, uptime and SLO burn-rate
  /// gauges refreshed from `cache` at scrape time.
  std::string prometheusText(const ResultCache::Stats& cache);

  telemetry::MetricRegistry& registry() { return registry_; }

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
  telemetry::Counter* overloaded_;
  telemetry::Counter* badRequests_;
  telemetry::Counter* timeouts_;
  telemetry::Counter* cancelled_;
  telemetry::Counter* rejectedFrames_;
  telemetry::Counter* shedConnections_;
  telemetry::Counter* claimsGranted_;
  telemetry::Counter* claimsDeclined_;
  telemetry::Counter* connectionsAccepted_;
  telemetry::Gauge* connectionsActive_;
  telemetry::Gauge* queueDepth_;
  telemetry::Gauge* maxQueueDepth_;
  telemetry::Gauge* uptimeMs_;
  telemetry::Gauge* cacheHitsG_;
  telemetry::Gauge* cacheMissesG_;
  telemetry::Gauge* cacheInsertionsG_;
  telemetry::Gauge* cacheEvictionsG_;
  telemetry::Gauge* cacheEntriesG_;
  telemetry::Gauge* cacheBytesG_;
  std::chrono::steady_clock::time_point start_;
  telemetry::SloTracker slo_;
  telemetry::EventRing events_;
  telemetry::EnergyAttributor energy_{registry_};
};

}  // namespace pviz::service
