// The PowerViz service wire protocol.
//
// Transport: newline-delimited JSON over a localhost TCP stream.  Each
// request is one JSON object on one line; the server answers with one
// JSON object on one line carrying the request's `id` (responses may be
// issued out of order when several workers share a connection, so the
// id is the correlation token).
//
// Operations:
//   ping          liveness probe; optional `delay_ms` holds a worker for
//                 that long (load/overload testing)
//   characterize  run one (algorithm, size) kernel for real; returns the
//                 full phase-level KernelProfile
//   study         a slice of the cap×algorithm×size matrix; returns one
//                 record per configuration with the paper's ratios
//   classify      power-opportunity vs power-sensitive for one kernel
//   budget        PowerAdvisor cap split for a sim+viz power budget
//   stats         server counters: queue, cache, latency per op
//   metrics       telemetry registry snapshot in Prometheus text
//                 exposition format (result: {"exposition": "..."})
//   trace_dump    drain the server's retained trace buffer: spans of
//                 requests that carried fleet trace context, plus the
//                 server's current steady-clock `now_us` so a collector
//                 can align timestamps across processes
//   events        recent entries from the structured event ring
//                 (slow requests, admission rejections, cancellations)
//
// Fleet operations (coordinator → worker; see src/fleet/):
//   register      assign this server its fleet identity ("worker":"w2");
//                 echoed in stats and heartbeat replies so the merged
//                 fleet metrics can be labeled per worker
//   heartbeat     cheap liveness + load probe: echoes `seq`, reports
//                 queue depth / connections / request totals.  The
//                 coordinator's registry declares a worker dead after K
//                 consecutive missed heartbeats
//   claim         admission handshake for one work unit (`unit` carries
//                 its result-cache key): granted while the request queue
//                 has room, declined under load so the coordinator can
//                 reroute to the next worker on the ring instead of
//                 queueing blind
//
// Request fields (unknown fields are ignored; snake_case on the wire):
//   {"op":"classify","id":"42","algorithm":"contour","size":64,
//    "caps":[120,80,40],"cycles":10}
//   {"op":"study","algorithms":["contour","slice"],"sizes":[32,64],
//    "caps":[120,80],"cycles":5}
//   {"op":"budget","algorithm":"volume","size":64,"budget_watts":65,
//    "sim_steps":10}
//
// Response envelope:
//   {"id":"42","op":"classify","status":"ok","cached":false,
//    "elapsed_ms":17.3,"result":{...}}
// `status` is "ok", "error" (with an `error` message), or "overloaded"
// (admission control rejected the request; retry later).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/power_advisor.h"
#include "core/study.h"
#include "service/json.h"
#include "telemetry/trace_sink.h"

namespace pviz::service {

enum class Op {
  Ping,
  Characterize,
  Study,
  Classify,
  Budget,
  Stats,
  Metrics,
  Register,
  Heartbeat,
  Claim,
  TraceDump,
  Events,
};

/// Wire token for an operation ("ping", "characterize", ...).
const char* opToken(Op op);
/// Parse a wire token; throws pviz::Error on an unknown operation.
Op parseOpToken(const std::string& token);

struct Request {
  Op op = Op::Ping;
  std::string id;  ///< client correlation token, echoed verbatim

  // Single-kernel operations (characterize / classify / budget).
  core::Algorithm algorithm = core::Algorithm::Contour;
  vis::Id size = 128;

  // Study slices (empty = server defaults).
  std::vector<core::Algorithm> algorithms;
  std::vector<vis::Id> sizes;

  std::vector<double> capsWatts;  ///< empty = server default sweep
  int cycles = 0;                 ///< 0 = server default

  // Budget.
  double budgetWatts = 0.0;
  int simSteps = 0;  ///< hydro steps modeling the sim side (0 = default; <= 10000)

  // Ping.
  double delayMs = 0.0;  ///< artificial service time, for load tests

  // Fleet operations.
  std::string worker;     ///< register: fleet identity to assign
  std::int64_t seq = 0;   ///< heartbeat: sequence number, echoed back
  std::string unit;       ///< claim: the work unit's result-cache key

  /// Request a Chrome-trace span dump of this request's execution in the
  /// response's `trace` field.  Valid on any op; not part of the cache
  /// key (tracing a request must not fork the result cache).
  bool trace = false;

  // Distributed trace context (coordinator → worker).  A nonzero
  // trace_id makes the worker tag every span of this request with the
  // propagated id (instead of minting a local one) and retain the spans
  // in its trace buffer for a later `trace_dump`.  parent_span is the
  // span id of the coordinator's dispatch span, recorded on the request
  // span so a merged trace keeps the causal edge.  Both are excluded
  // from the cache key like `trace` and `backend` — tracing a request
  // must not fork the result cache.
  std::uint64_t traceId = 0;
  std::uint64_t parentSpan = 0;

  /// trace_dump: also clear the retained buffer after dumping, so the
  /// next dump only sees spans recorded since.
  bool clearTrace = false;

  /// events: cap on the number of ring entries returned, newest last
  /// (0 = server default).
  int eventsLimit = 0;

  /// Execution backend for this request's kernels: "serial" or
  /// "threaded", or empty for the server's default.  Valid on any op; not part of the cache key — backends
  /// are bit-identical by contract, so the same request on a different
  /// backend must hit the same cache entry.
  std::string backend;

  // Particle advection overrides, valid on the single-kernel ops
  // (characterize / classify / budget) when algorithm == advection.
  // Zero / empty = server-configured defaults.  Each changes the profile
  // and is part of the cache key.
  vis::Id advectSeeds = 0;  ///< seed count (flow workload scale)
  vis::Id advectSteps = 0;  ///< max RK4 steps (integration length)
  std::string advectMode;   ///< "streamline" | "pathline"

  // Multi-block decomposition overrides, valid on any kernel-running op
  // (characterize / classify / budget / study).  Zero = server default.
  // Outputs are block-count-invariant but the *profile* gains
  // ghost-exchange / block-stitch phases, so both fields fork the cache
  // key (unlike `backend`, which forks neither output nor profile).
  vis::Id blocks = 0;  ///< k-slab block count (0 = server default)
  vis::Id ghost = 0;   ///< ghost layers per block side (0 = server default)
};

Json toJson(const Request& request);
/// Parse a request object; throws pviz::Error on a malformed request
/// (missing/unknown op, bad algorithm name, non-positive size, ...).
Request requestFromJson(const Json& json);

struct Response {
  std::string id;
  Op op = Op::Ping;
  std::string status = "ok";  ///< "ok" | "error" | "overloaded"
  bool cached = false;
  double elapsedMs = 0.0;
  std::string error;  ///< set when status != "ok"
  Json result;        ///< op-specific payload when status == "ok"
  Json trace;         ///< Chrome trace object when the request asked for it

  bool ok() const { return status == "ok"; }
};

Json toJson(const Response& response);
Response responseFromJson(const Json& json);

/// Append the wire line (no newline) of an `ok` reply whose result is
/// already serialized.  Byte-identical to toJson(response).dump() for
/// the same fields when response.result dumps to `result`, without
/// building a Json of the payload.  A null `trace` is omitted.
void appendOkReply(std::string& out, const std::string& id, Op op,
                   bool cached, double elapsedMs, std::string_view result,
                   const Json& trace);

// --- Result payloads ------------------------------------------------------
// Each core result type serializes to the `result` member of an "ok"
// response; the From functions invert exactly (round-trip tested).

Json profileToJson(const vis::KernelProfile& profile);
vis::KernelProfile profileFromJson(const Json& json);

Json recordToJson(const core::ConfigRecord& record);
core::ConfigRecord recordFromJson(const Json& json);

Json classificationToJson(const core::Classification& c);
core::Classification classificationFromJson(const Json& json);

Json budgetPlanToJson(const core::BudgetPlan& plan);
core::BudgetPlan budgetPlanFromJson(const Json& json);

/// Wire form of one retained trace span (`trace_dump` result entries).
/// Round-trips exactly, including args, pid and parent-span id.
Json traceSpanToJson(const telemetry::TraceSpan& span);
telemetry::TraceSpan traceSpanFromJson(const Json& json);

/// Deterministic cache key for a *normalized* request (defaults already
/// applied by the engine).  Empty for operations that are never cached
/// (ping, stats, metrics, trace_dump, events, fleet ops).
std::string canonicalCacheKey(const Request& request);

}  // namespace pviz::service
