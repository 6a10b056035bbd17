// The service engine: executes protocol requests against a shared Study
// and PowerAdvisor, with the result cache in front.
//
// The engine is the server's single source of study state.  It owns one
// Study instance (whose characterization memoization is thread-safe and
// deduplicates concurrent identical work), one PowerAdvisor and the
// sharded LRU over serialized results.  A budget request's simulation
// side is sim::hydroProfile, written down rather than run.  Every entry
// point is safe to call from any number of threads.
//
// Request normalization happens here: empty cap lists, zero cycle
// counts and zero sim-step counts pick up the engine defaults *before*
// the cache key is computed, so "the default sweep" and an explicitly
// spelled-out default sweep hit the same cache entry.
#pragma once

#include <optional>
#include <string>

#include "core/power_advisor.h"
#include "core/study.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "util/backend.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::telemetry {
class EnergyAttributor;
}  // namespace pviz::telemetry

namespace pviz::service {

struct EngineConfig {
  core::StudyConfig study;          ///< defaults: caps, sizes, cycles, cache
  std::size_t cacheEntries = 1024;  ///< result cache bound (0 disables)
  std::size_t cacheShards = 8;
  int defaultSimSteps = 10;  ///< hydro steps behind a `budget` request
  /// Upper bound on the client-supplied ping `delay_ms` — the delay
  /// sleeps a request worker, so an unbounded value lets one client
  /// park the whole worker pool.
  double maxPingDelayMs = 10000.0;
  /// Execution backend for requests that don't name one ("serial" /
  /// "threaded"; empty = process default, i.e. POWERVIZ_BACKEND or
  /// threaded).  A request's own `backend` field
  /// overrides this per request.
  std::string backend;
};

class ServiceEngine {
 public:
  explicit ServiceEngine(EngineConfig config = {});

  struct Outcome {
    Json result;          ///< op-specific payload
    bool cached = false;  ///< served from the result cache
  };

  /// Execute one request (never `stats` — the server answers that from
  /// its metrics): admit() followed, on a miss, by compute().  Throws
  /// pviz::Error for malformed parameters; the server maps that to an
  /// `error` response.  The context carries the request's cancellation
  /// token: expiry mid-kernel aborts with util::CancelledError, and a
  /// cancelled request never reaches the result cache (the put happens
  /// only after execution completes).
  Outcome handle(util::ExecutionContext& ctx, const Request& request);

  /// A request after admission: normalized, keyed and looked up.
  struct Admission {
    Request request;                 ///< engine defaults filled in
    std::string key;                 ///< result-cache key; empty = uncached
    std::optional<std::string> hit;  ///< the stored result bytes
  };

  /// The first step of handle(): validate the backend, normalize, key
  /// the request and look the key up, counting one cache hit or miss
  /// per cacheable request.  Needs no execution context, so the server
  /// runs it on the connection's reader and answers hits there.
  Admission admit(const Request& request);

  /// The second step, for a miss: run the admitted request on `ctx` and
  /// store its result under the key.  Returns the serialized result,
  /// the same bytes the cache now holds.
  std::string compute(util::ExecutionContext& ctx, const Admission& admission);

  /// Fill engine defaults into a request (caps, sizes, cycles, steps).
  Request normalize(const Request& request) const;

  const ResultCache& cache() const { return cache_; }
  const EngineConfig& config() const { return config_; }

  /// Attribute study-run energy to the requests that caused it.  Runs
  /// are credited under the context's trace id only on the *uncached*
  /// path — a cache hit re-serves a result without running a kernel, so
  /// it must not double-count joules.  Set before serving starts
  /// (nullptr disables attribution; the default).
  void setEnergyAttributor(telemetry::EnergyAttributor* attributor) {
    energy_ = attributor;
  }

 private:
  /// Uncached path.
  Json execute(util::ExecutionContext& ctx, const Request& request);
  Json runStudySlice(util::ExecutionContext& ctx, const Request& request);
  /// Single-kernel profile: the study characterization under the
  /// configured params with the request's advect_* / blocks / ghost
  /// overrides applied, memoized in the Study (and on disk) like any
  /// other.
  const vis::KernelProfile& profileFor(util::ExecutionContext& ctx,
                                       const Request& request);
  /// The configured params with the request's blocks / ghost overrides.
  core::AlgorithmParams paramsFor(const Request& request) const;

  EngineConfig config_;
  exec::BackendKind backend_;  ///< config_.backend, else the process default
  core::Study study_;
  core::PowerAdvisor advisor_;
  ResultCache cache_;
  telemetry::EnergyAttributor* energy_ = nullptr;
};

}  // namespace pviz::service
