#include "service/protocol.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "util/backend.h"
#include "util/error.h"
#include "viz/filters/particle_advection.h"

namespace pviz::service {

namespace {

// Helpers shared by the from-json parsers.

double numberField(const Json& json, const char* key, double fallback) {
  const Json* v = json.find(key);
  return v != nullptr ? v->asNumber() : fallback;
}

std::string stringField(const Json& json, const char* key,
                        const std::string& fallback) {
  const Json* v = json.find(key);
  return v != nullptr ? v->asString() : fallback;
}

const Json& requiredField(const Json& json, const char* key) {
  const Json* v = json.find(key);
  PVIZ_REQUIRE(v != nullptr,
               std::string("request is missing required field '") + key + "'");
  return *v;
}

// An integer-valued JSON number in [lo, hi], checked before the cast
// (converting a double the target type cannot hold is undefined
// behaviour).  Non-finite and fractional values are rejected too.
template <typename Int>
Int integerValue(const Json& value, const char* key, Int lo, Int hi) {
  const double x = value.asNumber();
  // hi + 1 is exact in double for every bound used here, and rounds to
  // 2^63 for the int64 maximum, which is the correct exclusive limit.
  const bool ok = std::isfinite(x) && std::trunc(x) == x &&
                  x >= static_cast<double>(lo) &&
                  x < static_cast<double>(hi) + 1.0;
  PVIZ_REQUIRE(ok, std::string(key) + " must be an integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<Int>(x);
}

// Trace and span ids travel as JSON numbers, so they are bounded by the
// largest integer a double holds with every smaller integer exact.
constexpr std::uint64_t kMaxWireId = (std::uint64_t{1} << 53) - 1;

// Hydro steps a budget request may model: one profile phase per step.
constexpr int kMaxSimSteps = 10000;

// An optional non-negative integer field; absent means 0.
template <typename Int>
Int countField(const Json& json, const char* key,
               Int hi = std::numeric_limits<Int>::max()) {
  const Json* v = json.find(key);
  return v != nullptr ? integerValue<Int>(*v, key, 0, hi) : 0;
}

}  // namespace

const char* opToken(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::Characterize: return "characterize";
    case Op::Study: return "study";
    case Op::Classify: return "classify";
    case Op::Budget: return "budget";
    case Op::Stats: return "stats";
    case Op::Metrics: return "metrics";
    case Op::Register: return "register";
    case Op::Heartbeat: return "heartbeat";
    case Op::Claim: return "claim";
    case Op::TraceDump: return "trace_dump";
    case Op::Events: return "events";
  }
  return "?";
}

Op parseOpToken(const std::string& token) {
  for (Op op : {Op::Ping, Op::Characterize, Op::Study, Op::Classify,
                Op::Budget, Op::Stats, Op::Metrics, Op::Register,
                Op::Heartbeat, Op::Claim, Op::TraceDump, Op::Events}) {
    if (token == opToken(op)) return op;
  }
  throw Error(
      "unknown op '" + token +
      "' (expected ping characterize study classify budget stats metrics "
      "register heartbeat claim trace_dump events)");
}

Json toJson(const Request& request) {
  Json out = Json::object();
  out.set("op", opToken(request.op));
  if (!request.id.empty()) out.set("id", request.id);
  if (request.trace) out.set("trace", true);
  if (request.traceId != 0) {
    out.set("trace_id", static_cast<double>(request.traceId));
  }
  if (request.parentSpan != 0) {
    out.set("parent_span", static_cast<double>(request.parentSpan));
  }
  if (!request.backend.empty()) out.set("backend", request.backend);
  switch (request.op) {
    case Op::Ping:
      if (request.delayMs > 0.0) out.set("delay_ms", request.delayMs);
      break;
    case Op::Stats:
    case Op::Metrics:
      break;
    case Op::TraceDump:
      if (request.clearTrace) out.set("clear", true);
      break;
    case Op::Events:
      if (request.eventsLimit > 0) out.set("limit", request.eventsLimit);
      break;
    case Op::Register:
      if (!request.worker.empty()) out.set("worker", request.worker);
      break;
    case Op::Heartbeat:
      if (request.seq != 0) out.set("seq", request.seq);
      break;
    case Op::Claim:
      out.set("unit", request.unit);
      break;
    case Op::Characterize:
    case Op::Classify:
    case Op::Budget:
      out.set("algorithm", core::algorithmToken(request.algorithm));
      out.set("size", request.size);
      if (request.op == Op::Budget) {
        out.set("budget_watts", request.budgetWatts);
        if (request.simSteps > 0) out.set("sim_steps", request.simSteps);
      }
      if (request.advectSeeds > 0) out.set("advect_seeds", request.advectSeeds);
      if (request.advectSteps > 0) out.set("advect_steps", request.advectSteps);
      if (!request.advectMode.empty()) {
        out.set("advect_mode", request.advectMode);
      }
      if (request.blocks > 0) out.set("blocks", request.blocks);
      if (request.ghost > 0) out.set("ghost", request.ghost);
      break;
    case Op::Study: {
      Json algorithms = Json::array();
      for (core::Algorithm a : request.algorithms) {
        algorithms.push(core::algorithmToken(a));
      }
      if (!request.algorithms.empty()) out.set("algorithms", std::move(algorithms));
      Json sizes = Json::array();
      for (vis::Id s : request.sizes) sizes.push(s);
      if (!request.sizes.empty()) out.set("sizes", std::move(sizes));
      if (request.blocks > 0) out.set("blocks", request.blocks);
      if (request.ghost > 0) out.set("ghost", request.ghost);
      break;
    }
  }
  if (!request.capsWatts.empty() &&
      (request.op == Op::Study || request.op == Op::Classify)) {
    Json caps = Json::array();
    for (double c : request.capsWatts) caps.push(c);
    out.set("caps", std::move(caps));
  }
  if (request.cycles > 0 && request.op == Op::Study) {
    out.set("cycles", request.cycles);
  }
  return out;
}

Request requestFromJson(const Json& json) {
  PVIZ_REQUIRE(json.isObject(), "request must be a JSON object");
  Request request;
  request.op = parseOpToken(requiredField(json, "op").asString());
  request.id = stringField(json, "id", "");
  if (const Json* trace = json.find("trace")) {
    request.trace = trace->asBool();
  }
  request.traceId = countField<std::uint64_t>(json, "trace_id", kMaxWireId);
  request.parentSpan =
      countField<std::uint64_t>(json, "parent_span", kMaxWireId);
  request.backend = stringField(json, "backend", "");
  if (!request.backend.empty()) {
    exec::parseBackendToken(request.backend);  // reject unknown tokens early
  }

  if (request.op == Op::TraceDump) {
    if (const Json* clear = json.find("clear")) {
      request.clearTrace = clear->asBool();
    }
    return request;
  }
  if (request.op == Op::Events) {
    request.eventsLimit = countField<int>(json, "limit");
    return request;
  }
  if (request.op == Op::Ping) {
    request.delayMs = numberField(json, "delay_ms", 0.0);
    PVIZ_REQUIRE(request.delayMs >= 0.0 && request.delayMs <= 60000.0,
                 "delay_ms must be in [0, 60000]");
    return request;
  }
  if (request.op == Op::Stats || request.op == Op::Metrics) return request;
  if (request.op == Op::Register) {
    request.worker = stringField(json, "worker", "");
    return request;
  }
  if (request.op == Op::Heartbeat) {
    if (const Json* seq = json.find("seq")) {
      request.seq = integerValue<std::int64_t>(
          *seq, "seq", std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max());
    }
    return request;
  }
  if (request.op == Op::Claim) {
    request.unit = requiredField(json, "unit").asString();
    PVIZ_REQUIRE(!request.unit.empty(), "claim needs a non-empty unit key");
    return request;
  }

  if (const Json* caps = json.find("caps")) {
    for (const Json& c : caps->asArray()) {
      const double cap = c.asNumber();
      PVIZ_REQUIRE(cap > 0.0, "caps must be positive watts");
      request.capsWatts.push_back(cap);
    }
  }

  // Multi-block decomposition (kernel-running ops only; 0 = default).
  request.blocks = countField<vis::Id>(json, "blocks", 4096);
  request.ghost = countField<vis::Id>(json, "ghost", 8);

  if (request.op == Op::Study) {
    if (const Json* algorithms = json.find("algorithms")) {
      for (const Json& a : algorithms->asArray()) {
        request.algorithms.push_back(core::parseAlgorithmToken(a.asString()));
      }
    }
    if (const Json* sizes = json.find("sizes")) {
      for (const Json& s : sizes->asArray()) {
        request.sizes.push_back(integerValue<vis::Id>(
            s, "sizes", 1, std::numeric_limits<vis::Id>::max()));
      }
    }
    request.cycles = countField<int>(json, "cycles");
    return request;
  }

  // Single-kernel operations.
  request.algorithm =
      core::parseAlgorithmToken(requiredField(json, "algorithm").asString());
  request.size = integerValue<vis::Id>(requiredField(json, "size"), "size", 1,
                                      std::numeric_limits<vis::Id>::max());
  if (request.op == Op::Budget) {
    request.budgetWatts = requiredField(json, "budget_watts").asNumber();
    PVIZ_REQUIRE(request.budgetWatts > 0.0, "budget_watts must be positive");
    request.simSteps = countField<int>(json, "sim_steps", kMaxSimSteps);
  }
  request.advectSeeds = countField<vis::Id>(json, "advect_seeds");
  request.advectSteps = countField<vis::Id>(json, "advect_steps");
  request.advectMode = stringField(json, "advect_mode", "");
  if (!request.advectMode.empty()) {
    vis::ParticleAdvectionFilter::parseMode(request.advectMode);
  }
  return request;
}

Json toJson(const Response& response) {
  Json out = Json::object();
  out.set("id", response.id);
  out.set("op", opToken(response.op));
  out.set("status", response.status);
  if (response.ok()) {
    out.set("cached", response.cached);
    out.set("elapsed_ms", response.elapsedMs);
    out.set("result", response.result);
  } else {
    out.set("error", response.error);
  }
  if (!response.trace.isNull()) out.set("trace", response.trace);
  return out;
}

void appendOkReply(std::string& out, const std::string& id, Op op,
                   bool cached, double elapsedMs, std::string_view result,
                   const Json& trace) {
  // The member order of toJson(Response): clients scan these lines.
  out += "{\"id\":";
  appendJsonString(out, id);
  out += ",\"op\":";
  appendJsonString(out, opToken(op));
  out += ",\"status\":\"ok\",\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"elapsed_ms\":";
  appendJsonNumber(out, elapsedMs);
  out += ",\"result\":";
  out += result;
  if (!trace.isNull()) {
    out += ",\"trace\":";
    out += trace.dump();
  }
  out += '}';
}

Response responseFromJson(const Json& json) {
  PVIZ_REQUIRE(json.isObject(), "response must be a JSON object");
  Response response;
  response.id = stringField(json, "id", "");
  response.op = parseOpToken(requiredField(json, "op").asString());
  response.status = requiredField(json, "status").asString();
  if (response.ok()) {
    if (const Json* cached = json.find("cached")) {
      response.cached = cached->asBool();
    }
    response.elapsedMs = numberField(json, "elapsed_ms", 0.0);
    if (const Json* result = json.find("result")) response.result = *result;
  } else {
    response.error = stringField(json, "error", "");
  }
  if (const Json* trace = json.find("trace")) response.trace = *trace;
  return response;
}

// --- Result payloads ------------------------------------------------------

Json profileToJson(const vis::KernelProfile& profile) {
  Json phases = Json::array();
  for (const vis::WorkProfile& ph : profile.phases) {
    Json p = Json::object();
    p.set("name", ph.name);
    p.set("flops", ph.flops);
    p.set("int_ops", ph.intOps);
    p.set("mem_ops", ph.memOps);
    p.set("bytes_streamed", ph.bytesStreamed);
    p.set("bytes_reused", ph.bytesReused);
    p.set("irregular_accesses", ph.irregularAccesses);
    p.set("working_set_bytes", ph.workingSetBytes);
    p.set("parallel_fraction", ph.parallelFraction);
    p.set("overlap", ph.overlap);
    phases.push(std::move(p));
  }
  Json out = Json::object();
  out.set("kernel", profile.kernel);
  out.set("elements", profile.elements);
  out.set("instructions", profile.totalInstructions());
  out.set("bytes_streamed", profile.totalBytesStreamed());
  out.set("phases", std::move(phases));
  return out;
}

vis::KernelProfile profileFromJson(const Json& json) {
  vis::KernelProfile profile;
  profile.kernel = requiredField(json, "kernel").asString();
  profile.elements = requiredField(json, "elements").asInt();
  for (const Json& p : requiredField(json, "phases").asArray()) {
    vis::WorkProfile ph;
    ph.name = stringField(p, "name", "");
    ph.flops = numberField(p, "flops", 0.0);
    ph.intOps = numberField(p, "int_ops", 0.0);
    ph.memOps = numberField(p, "mem_ops", 0.0);
    ph.bytesStreamed = numberField(p, "bytes_streamed", 0.0);
    ph.bytesReused = numberField(p, "bytes_reused", 0.0);
    ph.irregularAccesses = numberField(p, "irregular_accesses", 0.0);
    ph.workingSetBytes = numberField(p, "working_set_bytes", 0.0);
    ph.parallelFraction = numberField(p, "parallel_fraction", 1.0);
    ph.overlap = numberField(p, "overlap", 0.85);
    profile.phases.push_back(std::move(ph));
  }
  return profile;
}

Json recordToJson(const core::ConfigRecord& record) {
  Json out = Json::object();
  out.set("algorithm", core::algorithmToken(record.algorithm));
  out.set("size", record.size);
  out.set("cap_watts", record.capWatts);
  out.set("seconds", record.measurement.seconds);
  out.set("joules", record.measurement.energyJoules);
  out.set("watts", record.measurement.averageWatts);
  out.set("ghz", record.measurement.effectiveGhz);
  out.set("ipc", record.measurement.ipc);
  out.set("llc_miss_rate", record.measurement.llcMissRate);
  out.set("elements_per_second", record.measurement.elementsPerSecond);
  out.set("t_ratio", record.ratios.tRatio);
  out.set("p_ratio", record.ratios.pRatio);
  out.set("f_ratio", record.ratios.fRatio);
  return out;
}

core::ConfigRecord recordFromJson(const Json& json) {
  core::ConfigRecord record;
  record.algorithm =
      core::parseAlgorithmToken(requiredField(json, "algorithm").asString());
  record.size = requiredField(json, "size").asInt();
  record.capWatts = requiredField(json, "cap_watts").asNumber();
  record.measurement.seconds = numberField(json, "seconds", 0.0);
  record.measurement.energyJoules = numberField(json, "joules", 0.0);
  record.measurement.averageWatts = numberField(json, "watts", 0.0);
  record.measurement.effectiveGhz = numberField(json, "ghz", 0.0);
  record.measurement.ipc = numberField(json, "ipc", 0.0);
  record.measurement.llcMissRate = numberField(json, "llc_miss_rate", 0.0);
  record.measurement.elementsPerSecond =
      numberField(json, "elements_per_second", 0.0);
  record.ratios.tRatio = numberField(json, "t_ratio", 1.0);
  record.ratios.pRatio = numberField(json, "p_ratio", 1.0);
  record.ratios.fRatio = numberField(json, "f_ratio", 1.0);
  return record;
}

Json classificationToJson(const core::Classification& c) {
  Json out = Json::object();
  out.set("class", c.powerOpportunity ? "opportunity" : "sensitive");
  out.set("knee_cap_watts", c.kneeCapWatts);
  out.set("draw_at_tdp_watts", c.drawAtTdpWatts);
  out.set("slowdown_at_min_cap", c.slowdownAtMinCap);
  out.set("ipc_at_tdp", c.ipcAtTdp);
  return out;
}

core::Classification classificationFromJson(const Json& json) {
  core::Classification c;
  c.powerOpportunity = requiredField(json, "class").asString() == "opportunity";
  c.kneeCapWatts = numberField(json, "knee_cap_watts", 0.0);
  c.drawAtTdpWatts = numberField(json, "draw_at_tdp_watts", 0.0);
  c.slowdownAtMinCap = numberField(json, "slowdown_at_min_cap", 1.0);
  c.ipcAtTdp = numberField(json, "ipc_at_tdp", 0.0);
  return c;
}

Json budgetPlanToJson(const core::BudgetPlan& plan) {
  Json out = Json::object();
  out.set("sim_cap_watts", plan.simCapWatts);
  out.set("viz_cap_watts", plan.vizCapWatts);
  out.set("predicted_seconds", plan.predictedSeconds);
  out.set("uniform_seconds", plan.uniformSeconds);
  out.set("predicted_average_watts", plan.predictedAverageWatts);
  out.set("speedup_vs_uniform", plan.speedupVsUniform);
  return out;
}

core::BudgetPlan budgetPlanFromJson(const Json& json) {
  core::BudgetPlan plan;
  plan.simCapWatts = numberField(json, "sim_cap_watts", 0.0);
  plan.vizCapWatts = numberField(json, "viz_cap_watts", 0.0);
  plan.predictedSeconds = numberField(json, "predicted_seconds", 0.0);
  plan.uniformSeconds = numberField(json, "uniform_seconds", 0.0);
  plan.predictedAverageWatts =
      numberField(json, "predicted_average_watts", 0.0);
  plan.speedupVsUniform = numberField(json, "speedup_vs_uniform", 1.0);
  return plan;
}

Json traceSpanToJson(const telemetry::TraceSpan& span) {
  Json out = Json::object();
  out.set("name", span.name);
  out.set("cat", span.category);
  out.set("trace_id", static_cast<double>(span.traceId));
  if (span.parentSpan != 0) {
    out.set("parent_span", static_cast<double>(span.parentSpan));
  }
  out.set("pid", static_cast<double>(span.pid));
  out.set("tid", static_cast<double>(span.threadId));
  out.set("start_us", static_cast<double>(span.startUs));
  out.set("dur_us", static_cast<double>(span.durationUs));
  if (!span.args.empty()) {
    Json args = Json::object();
    for (const auto& [key, value] : span.args) args.set(key, value);
    out.set("args", std::move(args));
  }
  return out;
}

telemetry::TraceSpan traceSpanFromJson(const Json& json) {
  PVIZ_REQUIRE(json.isObject(), "trace span must be a JSON object");
  telemetry::TraceSpan span;
  span.name = stringField(json, "name", "");
  span.category = stringField(json, "cat", "");
  // Ids and times are range-checked like the request ids: a worker's
  // reply is outside input, and casting an out-of-range double is
  // undefined behaviour.
  span.traceId = countField<std::uint64_t>(json, "trace_id", kMaxWireId);
  span.parentSpan = countField<std::uint64_t>(json, "parent_span", kMaxWireId);
  if (const Json* pid = json.find("pid")) {  // absent: the default lane
    span.pid = integerValue<std::uint32_t>(
        *pid, "pid", 0, std::numeric_limits<std::uint32_t>::max());
  }
  span.threadId = countField<std::uint32_t>(json, "tid");
  span.startUs = countField<std::uint64_t>(json, "start_us", kMaxWireId);
  span.durationUs = countField<std::uint64_t>(json, "dur_us", kMaxWireId);
  if (const Json* args = json.find("args")) {
    for (const auto& [key, value] : args->asObject()) {
      span.args.emplace_back(key, value.asString());
    }
  }
  return span;
}

std::string canonicalCacheKey(const Request& request) {
  if (request.op == Op::Ping || request.op == Op::Stats ||
      request.op == Op::Metrics || request.op == Op::Register ||
      request.op == Op::Heartbeat || request.op == Op::Claim ||
      request.op == Op::TraceDump || request.op == Op::Events) {
    return "";
  }
  std::ostringstream key;
  key.precision(17);
  key << opToken(request.op);
  auto appendCaps = [&] {
    key << "|caps=";
    for (double c : request.capsWatts) key << c << ',';
  };
  // Advection overrides fork the result (seed count, step count and
  // mode all change the profile), so they fork the key.  `backend` is
  // absent: bit-identical results must share one entry.
  auto appendAdvect = [&] {
    if (request.advectSeeds > 0) key << "|aseeds=" << request.advectSeeds;
    if (request.advectSteps > 0) key << "|asteps=" << request.advectSteps;
    if (!request.advectMode.empty()) key << "|amode=" << request.advectMode;
  };
  // Decomposition overrides fork the profile (ghost-exchange /
  // block-stitch phases), so they fork the key even though filter
  // outputs are block-count-invariant.
  auto appendBlocks = [&] {
    if (request.blocks > 0) key << "|blocks=" << request.blocks;
    if (request.ghost > 0) key << "|ghost=" << request.ghost;
  };
  switch (request.op) {
    case Op::Characterize:
      key << "|alg=" << core::algorithmToken(request.algorithm)
          << "|size=" << request.size;
      appendAdvect();
      appendBlocks();
      break;
    case Op::Classify:
      key << "|alg=" << core::algorithmToken(request.algorithm)
          << "|size=" << request.size;
      appendCaps();
      appendAdvect();
      appendBlocks();
      break;
    case Op::Budget:
      key << "|alg=" << core::algorithmToken(request.algorithm)
          << "|size=" << request.size << "|budget=" << request.budgetWatts
          << "|steps=" << request.simSteps;
      appendAdvect();
      appendBlocks();
      break;
    case Op::Study: {
      key << "|algs=";
      for (core::Algorithm a : request.algorithms) {
        key << core::algorithmToken(a) << ',';
      }
      key << "|sizes=";
      for (vis::Id s : request.sizes) key << s << ',';
      appendCaps();
      key << "|cycles=" << request.cycles;
      appendBlocks();
      break;
    }
    case Op::Ping:
    case Op::Stats:
    case Op::Metrics:
    case Op::Register:
    case Op::Heartbeat:
    case Op::Claim:
    case Op::TraceDump:
    case Op::Events:
      break;
  }
  return key.str();
}

}  // namespace pviz::service
