#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "core/execution_sim.h"
#include "core/power_advisor.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "sim/cloverleaf.h"
#include "util/exec_context.h"
#include "util/fileio.h"
#include "util/stats.h"

namespace perfbench {

namespace core = pviz::core;
namespace service = pviz::service;
using service::Json;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : pviz::util::percentile(v, 0.5);
}

/// Median wall time of `fn`, in µs, over `reps` calls.
template <typename Fn>
double medianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    us.push_back(msSince(start) * 1000.0);
  }
  return median(us);
}

}  // namespace

std::vector<TraceSpan> spansFromChrome(const Json& chrome) {
  std::vector<TraceSpan> spans;
  const Json* events = chrome.find("traceEvents");
  if (events == nullptr || !events->isArray()) return spans;
  for (const Json& e : events->asArray()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->asString() != "X") continue;
    TraceSpan span;
    span.name = e.find("name")->asString();
    span.category = e.find("cat")->asString();
    span.pid = static_cast<std::uint32_t>(e.find("pid")->asInt());
    span.threadId = static_cast<std::uint32_t>(e.find("tid")->asInt());
    span.startUs = static_cast<std::uint64_t>(e.find("ts")->asInt());
    span.durationUs = static_cast<std::uint64_t>(e.find("dur")->asInt());
    if (const Json* args = e.find("args"); args != nullptr && args->isObject()) {
      for (const auto& [key, value] : args->asObject()) {
        if (key == "trace_id") {
          span.traceId = std::stoull(value.asString());
        } else if (value.isString()) {
          span.args.emplace_back(key, value.asString());
        }
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

std::vector<double> selfTimesUs(const std::vector<TraceSpan>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Group by trace id; inside a group, parents sort before children.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TraceSpan& x = spans[a];
    const TraceSpan& y = spans[b];
    if (x.traceId != y.traceId) return x.traceId < y.traceId;
    if (x.startUs != y.startUs) return x.startUs < y.startUs;
    return x.durationUs > y.durationUs;
  });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const TraceSpan& s = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].traceId != s.traceId) stack.clear();
    const std::uint64_t end = s.startUs + s.durationUs;
    while (!stack.empty()) {
      const TraceSpan& top = spans[stack.back()];
      if (top.startUs + top.durationUs > s.startUs) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const TraceSpan& parent = spans[stack.back()];
      const std::uint64_t parentEnd = parent.startUs + parent.durationUs;
      covered[stack.back()] +=
          static_cast<double>(std::min(end, parentEnd) - s.startUs);
    }
    stack.push_back(order[k]);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max(0.0, static_cast<double>(spans[i].durationUs) - covered[i]);
  }
  return self;
}

std::string stepOf(const TraceSpan& span) {
  if (span.category == "bench") return "fleet.coordinator";
  if (span.category == "fleet") return "fleet.wire";
  if (span.category == "loadgen") return "loadgen.lateness";
  if (span.category == "client") return "service.wire";
  if (span.name == "queue_wait") return "service.queue_wait";
  if (startsWith(span.name, "request/")) return "service.handle";
  if (startsWith(span.name, "simulate/")) return "core.model";
  return "viz.kernel";
}

const std::vector<std::string>& kernelPhases() {
  static const std::vector<std::string> phases = {
      "mc-classify",   "mc-scan",        "mc-generate",
      "select",        "scan",           "compact",
      "distance-field", "classify",      "subdivide",
      "range-fields",  "signed-distance", "color",
      "seed-particles", "rk4-advect",    "assemble-lines",
      "face-classify", "face-scan",      "face-generate",
      "gather-external-faces", "bvh-build", "trace",
      "ray-march"};
  return phases;
}

double Ledger::namedMs() const {
  double total = 0.0;
  for (const auto& [step, ms] : stepMs) {
    if (step != kUnattributed) total += ms;
  }
  return total;
}

std::string Ledger::table() const {
  std::ostringstream os;
  char line[128];
  std::snprintf(line, sizeof line, "%-22s %14s %8s\n", "blocking step",
                "self ms", "share");
  os << line;
  for (const auto& [step, ms] : stepMs) {
    std::snprintf(line, sizeof line, "%-22s %14.3f %7.2f%%\n", step.c_str(),
                  ms, e2eMs > 0 ? 100.0 * ms / e2eMs : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-22s %14.3f %7.2f%%\n", "named steps",
                namedMs(), 100.0 * coverage());
  os << line;
  std::snprintf(line, sizeof line, "%-22s %14.3f\n", "end-to-end", e2eMs);
  os << line;
  return os.str();
}

Ledger buildLedger(const std::vector<TraceSpan>& spans, double e2eMs,
                   MetricMap& metrics) {
  Ledger ledger;
  ledger.e2eMs = e2eMs;
  const std::vector<double> self = selfTimesUs(spans);
  const auto& phases = kernelPhases();
  for (const std::string& phase : phases) metrics["viz.self_ms." + phase] = 0.0;
  metrics["viz.self_ms.other"] = 0.0;
  double arenaPeak = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    std::string step = stepOf(span);
    // A request span with children ran a kernel; its own self time is
    // work no phase span covers, not a step of its own.
    if (step == "service.handle" && self[i] < static_cast<double>(span.durationUs)) {
      step = kUnattributed;
    }
    ledger.stepMs[step] += self[i] / 1000.0;
    if (step != "viz.kernel") continue;
    const bool named =
        std::find(phases.begin(), phases.end(), span.name) != phases.end();
    metrics["viz.self_ms." + (named ? span.name : std::string("other"))] +=
        self[i] / 1000.0;
    for (const auto& [key, value] : span.args) {
      if (key == "arena_bytes_in_use") {
        arenaPeak = std::max(arenaPeak, std::stod(value) / (1024.0 * 1024.0));
      }
    }
  }
  metrics["util.arena_peak_mb"] = arenaPeak;
  return ledger;
}

void writeChromeTrace(const std::string& path,
                      const std::vector<TraceSpan>& spans) {
  pviz::telemetry::TraceSink sink;
  sink.setProcessName(1, "perfbench / coordinator");
  sink.setProcessName(2, "powerviz_serve");
  for (const TraceSpan& span : spans) sink.add(span);
  pviz::util::atomicWriteFile(path, sink.toChromeJson());
}

void replayLayers(const ReplaySpec& spec, MetricMap& metrics) {
  // sim: dataset generation at both workload sizes, and the hydro proxy
  // behind `budget` requests.
  for (const pviz::vis::Id size : {pviz::vis::Id{32}, pviz::vis::Id{128}}) {
    const auto start = Clock::now();
    const pviz::vis::UniformGrid grid = pviz::sim::makeCloverField(size);
    metrics["sim.dataset_ms." + std::to_string(size)] = msSince(start);
  }
  {
    const auto start = Clock::now();
    pviz::sim::CloverLeaf clover(32);
    clover.run(10);
    metrics["sim.hydro_ms"] = msSince(start);
  }

  // core + viz: characterize each algorithm, then model it under every
  // cap the way Study does (work-scaled, repeated for the cycle count).
  const pviz::vis::UniformGrid grid = pviz::sim::makeCloverField(spec.size);
  pviz::util::ExecutionContext ctx;
  core::ExecutionSimulator simulator;
  core::PowerAdvisor advisor;
  std::vector<double> advisorUs;
  for (const core::Algorithm algorithm : core::allAlgorithms()) {
    const std::string token = core::algorithmToken(algorithm);
    ctx.beginRun();
    auto start = Clock::now();
    const pviz::vis::KernelProfile profile =
        core::runAlgorithm(ctx, algorithm, grid, spec.params);
    metrics["core.characterize_ms." + token] = msSince(start);
    metrics["viz.elements." + token] = static_cast<double>(profile.elements);
    metrics["viz.instructions." + token] = profile.totalInstructions();

    const pviz::vis::KernelProfile scaled =
        core::repeatKernel(core::scaleKernelWork(profile, 100.0), spec.cycles);
    start = Clock::now();
    for (const double cap : spec.capsWatts) simulator.run(scaled, cap);
    metrics["core.model_ms." + token] = msSince(start);

    const pviz::vis::KernelProfile once = core::scaleKernelWork(profile, 100.0);
    advisorUs.push_back(medianUs(3, [&] { advisor.classify(once, spec.capsWatts); }));
  }
  metrics["core.advisor_us"] = median(advisorUs);
  const pviz::util::ScratchArena::Stats arena = ctx.arena().stats();
  metrics["util.arena_reuse_ratio"] =
      arena.acquires > 0 ? static_cast<double>(arena.reuseHits) /
                               static_cast<double>(arena.acquires)
                         : 0.0;

  // service: parse the workload's frames, serialize a reply envelope
  // around each result payload, look each payload up in a result cache.
  constexpr int kReps = 200;
  std::vector<double> parseUs, serializeUs, cacheUs;
  for (const std::string& frame : spec.frames) {
    parseUs.push_back(medianUs(kReps, [&] {
      service::requestFromJson(Json::parse(frame));
    }));
  }
  service::ResultCache cache(1024, 8);
  for (std::size_t i = 0; i < spec.results.size(); ++i) {
    cache.put("key/" + std::to_string(i), spec.results[i]);
  }
  for (std::size_t i = 0; i < spec.results.size(); ++i) {
    service::Response response;
    response.id = std::to_string(i);
    response.op = service::Op::Classify;
    response.cached = true;
    response.result = Json::parse(spec.results[i]);
    serializeUs.push_back(
        medianUs(kReps, [&] { service::toJson(response).dump(); }));
    const std::string key = "key/" + std::to_string(i);
    cacheUs.push_back(medianUs(kReps, [&] { cache.get(key); }));
  }
  metrics["service.parse_us"] = median(parseUs);
  metrics["service.serialize_us"] = median(serializeUs);
  metrics["service.cache_get_us"] = median(cacheUs);
}

}  // namespace perfbench
