#include "fleet/trace_collector.h"

#include <algorithm>
#include <limits>

namespace pviz::fleet {

namespace {

/// The value of a span arg, or "" when absent.
std::string argValue(const telemetry::TraceSpan& span, const char* key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return {};
}

/// Worker request spans and coordinator dispatch spans for one trace id
/// pair up index-wise in start order: a retried or hedged unit leaves
/// one span of each kind per attempt that reached this worker.
void sortByStart(std::vector<const telemetry::TraceSpan*>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const telemetry::TraceSpan* a, const telemetry::TraceSpan* b) {
              return a->startUs < b->startUs;
            });
}

/// Clamp the heartbeat offset estimate into the causal interval derived
/// from matched dispatch/request span pairs.  See the header comment
/// for the derivation.
std::int64_t causalOffset(const std::vector<telemetry::TraceSpan>& coordSpans,
                          const WorkerTraceFragment& fragment) {
  // Coordinator dispatch spans aimed at this worker, bucketed by trace.
  std::map<std::uint64_t, std::vector<const telemetry::TraceSpan*>> dispatch;
  for (const telemetry::TraceSpan& span : coordSpans) {
    if (span.traceId == 0 || span.category != "fleet") continue;
    if (argValue(span, "worker") != fragment.worker) continue;
    dispatch[span.traceId].push_back(&span);
  }
  // This worker's request-level spans, bucketed the same way.
  std::map<std::uint64_t, std::vector<const telemetry::TraceSpan*>> requests;
  for (const telemetry::TraceSpan& span : fragment.spans) {
    if (span.traceId == 0 || span.category != "service") continue;
    requests[span.traceId].push_back(&span);
  }

  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  bool paired = false;
  for (auto& [traceId, reqs] : requests) {
    auto it = dispatch.find(traceId);
    if (it == dispatch.end()) continue;
    std::vector<const telemetry::TraceSpan*>& disp = it->second;
    sortByStart(reqs);
    sortByStart(disp);
    const std::size_t pairs = std::min(reqs.size(), disp.size());
    paired = paired || pairs > 0;
    for (std::size_t i = 0; i < pairs; ++i) {
      const telemetry::TraceSpan& r = *reqs[i];
      const telemetry::TraceSpan& d = *disp[i];
      lo = std::max(lo, static_cast<std::int64_t>(r.startUs + r.durationUs) -
                            static_cast<std::int64_t>(d.startUs + d.durationUs));
      hi = std::min(hi, static_cast<std::int64_t>(r.startUs) -
                            static_cast<std::int64_t>(d.startUs));
    }
  }

  // No pair narrowed the interval: keep the worker's own estimate (the
  // sentinels' hi - lo below would overflow).
  if (!paired) return fragment.clockOffsetUs;
  if (lo > hi) {
    // The pairs disagree (a dropped retry span got mispaired); fall
    // back to splitting the difference rather than trusting either.
    return lo / 2 + hi / 2;
  }
  // Keep a microsecond inside the interval when there is room, so
  // containment stays strict rather than boundary-touching.
  if (hi - lo > 2) {
    ++lo;
    --hi;
  }
  return std::clamp(fragment.clockOffsetUs, lo, hi);
}

/// Rebase one worker timestamp onto the coordinator clock.
std::uint64_t rebase(std::uint64_t us, std::int64_t offsetUs) {
  const std::int64_t shifted = static_cast<std::int64_t>(us) - offsetUs;
  return shifted > 0 ? static_cast<std::uint64_t>(shifted) : 0;
}

}  // namespace

MergedTrace mergeFleetTrace(std::vector<telemetry::TraceSpan> coordinatorSpans,
                            std::vector<WorkerTraceFragment> fragments) {
  MergedTrace out;
  out.processNames.emplace_back(1, "coordinator");
  for (telemetry::TraceSpan& span : coordinatorSpans) span.pid = 1;

  std::sort(fragments.begin(), fragments.end(),
            [](const WorkerTraceFragment& a, const WorkerTraceFragment& b) {
              return a.worker < b.worker;
            });
  std::uint32_t pid = 2;
  for (WorkerTraceFragment& fragment : fragments) {
    const std::int64_t offset = causalOffset(coordinatorSpans, fragment);
    out.appliedOffsetUs[fragment.worker] = offset;
    out.processNames.emplace_back(pid, "worker/" + fragment.worker);
    for (telemetry::TraceSpan& span : fragment.spans) {
      span.pid = pid;
      span.startUs = rebase(span.startUs, offset);
      out.spans.push_back(std::move(span));
    }
    ++pid;
  }
  for (telemetry::TraceSpan& span : coordinatorSpans) {
    out.spans.push_back(std::move(span));
  }

  std::sort(out.spans.begin(), out.spans.end(),
            [](const telemetry::TraceSpan& a, const telemetry::TraceSpan& b) {
              if (a.startUs != b.startUs) return a.startUs < b.startUs;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.name < b.name;
            });
  return out;
}

std::string mergedTraceToChromeJson(const MergedTrace& trace) {
  telemetry::TraceSink sink;
  for (const auto& [pid, name] : trace.processNames) {
    sink.setProcessName(pid, name);
  }
  for (const telemetry::TraceSpan& span : trace.spans) sink.add(span);
  return sink.toChromeJson();
}

}  // namespace pviz::fleet
