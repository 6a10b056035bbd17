#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/execution_sim.h"
#include "sim/cloverleaf.h"
#include "telemetry/energy_attribution.h"
#include "util/backend.h"
#include "util/error.h"
#include "util/exec_context.h"

namespace pviz::service {

ServiceEngine::ServiceEngine(EngineConfig config)
    : config_(std::move(config)),
      // A bad configured backend fails here, at boot, not per request.
      backend_(config_.backend.empty()
                   ? exec::defaultBackendKind()
                   : exec::parseBackendToken(config_.backend)),
      study_(config_.study),
      advisor_(config_.study.machine),
      cache_(config_.cacheEntries, config_.cacheShards) {}

Request ServiceEngine::normalize(const Request& request) const {
  Request out = request;
  if (out.capsWatts.empty()) out.capsWatts = config_.study.capsWatts;
  if (out.cycles <= 0) out.cycles = config_.study.cycles;
  if (out.op == Op::Study) {
    if (out.algorithms.empty()) out.algorithms = core::allAlgorithms();
    if (out.sizes.empty()) out.sizes = config_.study.sizes;
  }
  if (out.op == Op::Budget && out.simSteps <= 0) {
    out.simSteps = config_.defaultSimSteps;
  }
  return out;
}

ServiceEngine::Outcome ServiceEngine::handle(util::ExecutionContext& ctx,
                                             const Request& request) {
  const Admission admission = admit(request);
  if (admission.hit) return Outcome{Json::parse(*admission.hit), true};
  return Outcome{Json::parse(compute(ctx, admission)), false};
}

ServiceEngine::Admission ServiceEngine::admit(const Request& rawRequest) {
  PVIZ_REQUIRE(rawRequest.op != Op::Stats && rawRequest.op != Op::Metrics &&
                   rawRequest.op != Op::Register &&
                   rawRequest.op != Op::Heartbeat &&
                   rawRequest.op != Op::Claim &&
                   rawRequest.op != Op::TraceDump &&
                   rawRequest.op != Op::Events,
               "stats/metrics/trace/events/fleet requests are answered by the "
               "server, not the engine");
  // A bad backend is refused even when the result is cached, though the
  // backend cannot affect the key: backends are bit-identical, so every
  // backend maps to the same cache entry.
  if (!rawRequest.backend.empty()) exec::parseBackendToken(rawRequest.backend);
  Admission admission{normalize(rawRequest), {}, std::nullopt};
  admission.key = canonicalCacheKey(admission.request);
  if (!admission.key.empty()) admission.hit = cache_.get(admission.key);
  return admission;
}

std::string ServiceEngine::compute(util::ExecutionContext& ctx,
                                   const Admission& admission) {
  const Request& request = admission.request;
  // Backend precedence: request field > engine config > process default.
  ctx.setBackend(request.backend.empty()
                     ? backend_
                     : exec::parseBackendToken(request.backend));
  // A cancelled execute() throws past the put, so the cache only ever
  // holds results of runs that finished.
  std::string result = execute(ctx, request).dump();
  if (!admission.key.empty()) cache_.put(admission.key, result);
  return result;
}

const vis::KernelProfile& ServiceEngine::profileFor(
    util::ExecutionContext& ctx, const Request& request) {
  const bool advectOverrides = request.advectSeeds > 0 ||
                               request.advectSteps > 0 ||
                               !request.advectMode.empty();
  if (advectOverrides) {
    PVIZ_REQUIRE(request.algorithm == core::Algorithm::ParticleAdvection,
                 "advect_* overrides are only valid with algorithm=advection");
  }
  core::AlgorithmParams params = paramsFor(request);
  if (request.advectSeeds > 0) params.seedCount = request.advectSeeds;
  if (request.advectSteps > 0) params.maxSteps = request.advectSteps;
  if (!request.advectMode.empty()) params.advectionMode = request.advectMode;
  return study_.characterize(ctx, request.algorithm, request.size, params);
}

core::AlgorithmParams ServiceEngine::paramsFor(const Request& request) const {
  // Decomposition overrides are valid on ANY algorithm (every kernel
  // runs multi-block, or on the stitched grid when its traversal is
  // global), unlike advect_* which only makes sense for advection.
  core::AlgorithmParams params = config_.study.params;
  if (request.blocks > 0) params.blockCount = request.blocks;
  if (request.ghost > 0) params.ghostLayers = request.ghost;
  return params;
}

Json ServiceEngine::execute(util::ExecutionContext& ctx,
                            const Request& request) {
  switch (request.op) {
    case Op::Ping: {
      if (request.delayMs > 0.0) {
        const double delayMs =
            std::min(request.delayMs, config_.maxPingDelayMs);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delayMs));
        ctx.cancel().throwIfCancelled();  // delay may outlive the budget
      }
      Json out = Json::object();
      out.set("pong", true);
      return out;
    }

    case Op::Characterize: {
      // The raw single-cycle profile, before work-scale calibration —
      // what a client needs to run its own advisor locally.
      return profileToJson(profileFor(ctx, request));
    }

    case Op::Classify: {
      const vis::KernelProfile kernel = core::scaleKernelWork(
          profileFor(ctx, request), config_.study.workScale);
      const core::Classification cls =
          advisor_.classify(kernel, request.capsWatts);
      Json out = classificationToJson(cls);
      out.set("algorithm", core::algorithmToken(request.algorithm));
      out.set("size", request.size);
      return out;
    }

    case Op::Budget: {
      const vis::KernelProfile vizKernel = core::scaleKernelWork(
          profileFor(ctx, request), config_.study.workScale);
      const vis::KernelProfile simKernel = core::scaleKernelWork(
          sim::hydroProfile(request.size, request.simSteps),
          config_.study.workScale);
      const core::BudgetPlan plan =
          advisor_.planBudget(simKernel, vizKernel, request.budgetWatts);
      Json out = budgetPlanToJson(plan);
      out.set("algorithm", core::algorithmToken(request.algorithm));
      out.set("size", request.size);
      out.set("budget_watts", request.budgetWatts);
      out.set("classification", classificationToJson(plan.classification));
      return out;
    }

    case Op::Study:
      return runStudySlice(ctx, request);

    case Op::Stats:
    case Op::Metrics:
    case Op::Register:
    case Op::Heartbeat:
    case Op::Claim:
    case Op::TraceDump:
    case Op::Events:
      break;
  }
  throw Error("unhandled op");
}

Json ServiceEngine::runStudySlice(util::ExecutionContext& ctx,
                                  const Request& request) {
  Json records = Json::array();
  std::size_t count = 0;
  const core::AlgorithmParams params = paramsFor(request);
  for (vis::Id size : request.sizes) {
    for (core::Algorithm algorithm : request.algorithms) {
      for (core::ConfigRecord& record :
           study_.capSweep(ctx, algorithm, size, request.capsWatts,
                           request.cycles, params)) {
        // Only this uncached path reaches the attributor: a cache hit
        // re-serves these joules without running anything.
        if (energy_ != nullptr && ctx.traceId() != 0) {
          energy_->recordRun(ctx.traceId(), core::algorithmToken(algorithm),
                             record.capWatts, record.measurement.energyJoules,
                             record.measurement.seconds);
        }
        records.push(recordToJson(record));
        ++count;
      }
    }
  }
  Json out = Json::object();
  out.set("count", static_cast<double>(count));
  out.set("records", std::move(records));
  return out;
}

}  // namespace pviz::service
