// The traced run's per-layer ledger.
//
// Two sources, both measured from outside the program:
//   * spans — the server's per-request `trace` dumps (advisor
//     workloads) or the coordinator's merged fleet trace (sweep), plus
//     spans the benchmark records around its own calls (generator
//     lateness, client round trip, queue wait derived from elapsed_ms).
//     Self time per span = duration minus what its direct children
//     cover; the self times of one request's span tree add up to that
//     request's end-to-end time.  The self time of a request span that
//     has children (a kernel request) is work no phase span names, and
//     is billed to kUnattributed rather than to a step.
//   * replay — the workload's inputs pushed through each layer's public
//     functions in this process (sim::makeCloverField, core::runAlgorithm,
//     core::ExecutionSimulator, core::PowerAdvisor, service::Json,
//     service::ResultCache), each call timed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "service/json.h"
#include "telemetry/trace_sink.h"

namespace perfbench {

using pviz::telemetry::TraceSpan;

/// Metric name → value, in the units BENCHMARK.json declares.
using MetricMap = std::map<std::string, double>;

/// Spans of a Chrome trace-event object ({"traceEvents":[...]}).
std::vector<TraceSpan> spansFromChrome(const pviz::service::Json& chrome);

/// Self time of each span in µs: its duration minus the part covered by
/// its direct children.  A child is a span of the same trace id lying
/// inside it (the innermost enclosing span is the parent).
std::vector<double> selfTimesUs(const std::vector<TraceSpan>& spans);

/// The blocking step a span's self time is billed to: fleet.coordinator,
/// fleet.wire, loadgen.lateness, service.wire, service.queue_wait,
/// service.handle, core.model or viz.kernel.
std::string stepOf(const TraceSpan& span);

/// Where a kernel request's self time goes: time inside the request
/// outside every kernel and model phase (dataset generation, untraced
/// kernel work, record serialization).
inline constexpr const char* kUnattributed = "unattributed";

/// Kernel phases reported one by one as viz.self_ms.<phase>; any other
/// phase name lands in viz.self_ms.other.
const std::vector<std::string>& kernelPhases();

/// Per-step self-time totals of a set of spans, against the end-to-end
/// time they should account for.
struct Ledger {
  std::map<std::string, double> stepMs;  ///< kUnattributed included
  double e2eMs = 0.0;
  /// Σ named steps (every step but kUnattributed).
  double namedMs() const;
  /// Σ named steps / e2e.
  double coverage() const { return e2eMs > 0 ? namedMs() / e2eMs : 0.0; }
  double unattributedMs() const {
    const auto it = stepMs.find(kUnattributed);
    return it == stepMs.end() ? 0.0 : it->second;
  }
  std::string table() const;
};

/// Bill `spans` to steps; also adds viz.self_ms.<phase> and
/// util.arena_peak_mb (max arena_bytes_in_use over kernel phases).
Ledger buildLedger(const std::vector<TraceSpan>& spans, double e2eMs,
                   MetricMap& metrics);

/// Write the spans as one Chrome trace (atomic file write).
void writeChromeTrace(const std::string& path,
                      const std::vector<TraceSpan>& spans);

struct ReplaySpec {
  pviz::vis::Id size = 128;
  pviz::core::AlgorithmParams params;
  std::vector<double> capsWatts;
  int cycles = 10;
  /// Request frames of the workload, for the parse/serialize timings.
  std::vector<std::string> frames;
  /// Result payloads of the workload's cache keys, for the cache timing.
  std::vector<std::string> results;
};

/// Run the workload's inputs through each layer's public functions and
/// add the timings: core.characterize_ms.<alg>, core.model_ms.<alg>,
/// core.advisor_us, viz.elements.<alg>, viz.instructions.<alg>,
/// sim.dataset_ms.<size> (32 and 128), sim.hydro_ms,
/// util.arena_reuse_ratio, service.parse_us, service.serialize_us and
/// service.cache_get_us.
void replayLayers(const ReplaySpec& spec, MetricMap& metrics);

}  // namespace perfbench
