// powerviz_client — command-line client for a running powerviz_serve.
//
//   powerviz_client --port 7077 classify --algorithm contour --size 128
//   powerviz_client --port 7077 study --algorithms contour,slice
//       --sizes 32,64 --caps 120,80,40
//   powerviz_client --port 7077 budget --algorithm volume --size 64
//       --budget 65
//   powerviz_client --port 7077 stats
//   powerviz_client --port 7077 ping
//
// Prints a human summary by default; --json prints the raw response
// line (one JSON object), for scripting.
#include <iostream>

#include "service/client.h"
#include "telemetry/prometheus.h"
#include "util/error.h"
#include "util/fileio.h"
#include "util/options.h"
#include "util/table.h"

namespace {

using namespace pviz;

[[noreturn]] void usage(int exitCode) {
  std::cout <<
      R"(powerviz_client — query a running powerviz_serve

usage: powerviz_client [--host H] [--port N] [--json] [--timeout-ms N]
                       [--retries N] [--retry-backoff-ms N] OP [op options]

`--timeout-ms N` bounds each read from the server (0 = wait forever,
the default) so a hung server fails the command instead of blocking it.
`--retries N` retries a refused connect and reconnects-and-resends a
request whose connection died mid-flight (worker restart), with
exponential backoff starting at `--retry-backoff-ms` (default 50).
Receive timeouts are never retried — a slow server is not a dead one.

operations:
  ping [--delay-ms X]       liveness probe
  characterize --algorithm A --size N
  classify --algorithm A --size N [--caps w,w,...]
  study [--algorithms a,b,...] [--sizes n,n,...] [--caps w,w,...]
        [--cycles N]
  budget --algorithm A --size N --budget W [--sim-steps N (1..10000)]

advection overrides (single-kernel ops with --algorithm advection):
  --advect-seeds N          particle count, 1..50000000 (default: server
                            config)
  --advect-steps N          max integration steps, 1..10000000
  --advect-mode M           streamline | pathline

multi-block overrides (any kernel-running op):
  --blocks N                k-slab block count, 1..4096 (default: server
                            config).  Outputs are bit-identical to one
                            block; the profile gains ghost-exchange /
                            block-stitch phases, so this IS part of the
                            result-cache key.
  --ghost N                 ghost cell layers per block side, 1..8
  stats                     server counters (queue, cache, latency,
                            per-request energy attribution, SLO burn)
  metrics                   Prometheus text exposition of the telemetry
                            registry (--metrics is a shortcut)
  events                    recent structured server events — slow
                            requests, rejections, worker transitions
                            (--events is a shortcut; --limit N bounds
                            the dump, default 256)
  trace_dump                the server's retained fleet-trace buffer as
                            span JSON (--clear drains it)

tracing / telemetry:
  --metrics                 same as the `metrics` op
  --events                  same as the `events` op
  --limit N                 events to return (newest N, oldest first)
  --clear                   drain the trace buffer after a trace_dump
  --lint                    structurally check the exposition output and
                            exit non-zero if it is malformed
  --trace                   ask the server for a Chrome-trace span dump
                            of this request (response `trace` field)
  --trace-out PATH          write that dump to PATH (Perfetto-loadable)
  --backend NAME            execution backend for this request on the
                            server: serial | threaded
                            (default: the server's own default; never
                            part of the result-cache key — backends are
                            bit-identical)

algorithms: contour threshold clip isovolume slice advection raytracing
volume (or "all")
)";
  std::exit(exitCode);
}

// Range-checked integer flag: rejects typos (zero, negatives, absurd
// magnitudes) at parse time with the offending flag named, instead of
// shipping them to the server.
std::int64_t parseBounded(const std::string& value, const char* flag,
                          std::int64_t lo, std::int64_t hi) {
  const std::int64_t parsed = util::parseInt(value, flag);
  if (parsed < lo || parsed > hi) {
    std::cerr << flag << " must be in [" << lo << ", " << hi << "], got "
              << parsed << '\n';
    std::exit(2);
  }
  return parsed;
}

void printStudy(const service::Json& result) {
  util::TextTable table;
  table.setHeader({"Algorithm", "Size", "Cap(W)", "Time(s)", "Draw(W)",
                   "IPC", "Tratio", "Pratio"});
  for (const service::Json& row : result.find("records")->asArray()) {
    const core::ConfigRecord record = service::recordFromJson(row);
    table.addRow({core::algorithmName(record.algorithm),
                  std::to_string(record.size),
                  util::formatFixed(record.capWatts, 0),
                  util::formatFixed(record.measurement.seconds, 2),
                  util::formatFixed(record.measurement.averageWatts, 1),
                  util::formatFixed(record.measurement.ipc, 2),
                  util::formatRatio(record.ratios.tRatio),
                  util::formatRatio(record.ratios.pRatio)});
  }
  table.print(std::cout);
}

void printEvents(const service::Json& result) {
  const service::Json* events = result.find("events");
  if (events == nullptr || !events->isArray()) {
    std::cout << result.dump() << '\n';
    return;
  }
  util::TextTable table;
  table.setHeader({"Seq", "Time(ms)", "Kind", "Op", "Value", "Detail"});
  for (const service::Json& row : events->asArray()) {
    auto field = [&](const char* key) -> std::string {
      const service::Json* v = row.find(key);
      if (v == nullptr) return {};
      return v->isString() ? v->asString() : v->dump();
    };
    const service::Json* timeUs = row.find("time_us");
    table.addRow({field("seq"),
                  timeUs != nullptr && timeUs->isNumber()
                      ? util::formatFixed(timeUs->asNumber() / 1000.0, 1)
                      : std::string{},
                  field("kind"), field("op"), field("value"),
                  field("detail")});
  }
  table.print(std::cout);
}

void printSummary(const service::Response& response) {
  switch (response.op) {
    case service::Op::Ping:
      std::cout << "pong (" << util::formatFixed(response.elapsedMs, 2)
                << " ms)\n";
      return;
    case service::Op::Study:
      printStudy(response.result);
      break;
    case service::Op::Classify: {
      const core::Classification c =
          service::classificationFromJson(response.result);
      std::cout << (c.powerOpportunity ? "power opportunity"
                                       : "power sensitive")
                << ": knee " << util::formatFixed(c.kneeCapWatts, 0)
                << " W, draw " << util::formatFixed(c.drawAtTdpWatts, 1)
                << " W at TDP, IPC " << util::formatFixed(c.ipcAtTdp, 2)
                << ", slowdown at min cap "
                << util::formatRatio(c.slowdownAtMinCap) << '\n';
      break;
    }
    case service::Op::Budget: {
      const core::BudgetPlan plan =
          service::budgetPlanFromJson(response.result);
      std::cout << "viz cap " << util::formatFixed(plan.vizCapWatts, 0)
                << " W, sim cap " << util::formatFixed(plan.simCapWatts, 0)
                << " W, predicted "
                << util::formatFixed(plan.predictedSeconds, 2) << " s vs "
                << util::formatFixed(plan.uniformSeconds, 2)
                << " s uniform (speedup "
                << util::formatRatio(plan.speedupVsUniform) << ")\n";
      break;
    }
    case service::Op::Metrics:
      // The exposition text is the payload; print it verbatim so the
      // output can be piped straight to a Prometheus scrape check.
      if (const service::Json* text = response.result.find("exposition")) {
        std::cout << text->asString();
      }
      return;
    case service::Op::Events:
      printEvents(response.result);
      return;
    case service::Op::Characterize:
    case service::Op::Stats:
    case service::Op::Register:
    case service::Op::Heartbeat:
    case service::Op::Claim:
    case service::Op::TraceDump:
      std::cout << response.result.dump() << '\n';
      break;
  }
  std::cout << (response.cached ? "cached" : "computed") << " in "
            << util::formatFixed(response.elapsedMs, 2) << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7077;
  bool rawJson = false;
  bool lint = false;
  std::string traceOutPath;
  service::ServiceClient::Limits limits;
  service::Request request;
  bool haveOp = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::cerr << arg << " needs a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") usage(0);
      else if (arg == "--host") host = next();
      else if (arg == "--port") port = static_cast<int>(util::parseInt(next(), "--port"));
      else if (arg == "--json") rawJson = true;
      else if (arg == "--timeout-ms") limits.recvTimeoutMs = static_cast<int>(util::parseInt(next(), "--timeout-ms"));
      else if (arg == "--retries") limits.retries = static_cast<int>(util::parseInt(next(), "--retries"));
      else if (arg == "--retry-backoff-ms") limits.retryBackoffMs = static_cast<int>(util::parseInt(next(), "--retry-backoff-ms"));
      else if (arg == "--algorithm") request.algorithm = core::parseAlgorithmToken(next());
      else if (arg == "--algorithms") request.algorithms = core::parseAlgorithmList(next());
      else if (arg == "--size") request.size = util::parseInt(next(), "--size");
      else if (arg == "--sizes") {
        request.sizes.clear();
        for (std::int64_t s : util::parseSizeList(next())) request.sizes.push_back(s);
      }
      else if (arg == "--caps") request.capsWatts = util::parseCapList(next());
      else if (arg == "--cycles") request.cycles = static_cast<int>(util::parseInt(next(), "--cycles"));
      else if (arg == "--budget") request.budgetWatts = util::parseDouble(next(), "--budget");
      else if (arg == "--sim-steps") request.simSteps = static_cast<int>(parseBounded(next(), "--sim-steps", 1, 10000));
      else if (arg == "--delay-ms") request.delayMs = util::parseDouble(next(), "--delay-ms");
      else if (arg == "--metrics") {
        request.op = service::Op::Metrics;
        haveOp = true;
      }
      else if (arg == "--events") {
        request.op = service::Op::Events;
        haveOp = true;
      }
      else if (arg == "--limit") request.eventsLimit = static_cast<int>(parseBounded(next(), "--limit", 1, 1 << 20));
      else if (arg == "--clear") request.clearTrace = true;
      else if (arg == "--lint") lint = true;
      else if (arg == "--trace") request.trace = true;
      else if (arg == "--trace-out") {
        request.trace = true;
        traceOutPath = next();
      }
      else if (arg == "--backend") request.backend = next();
      else if (arg == "--advect-seeds") request.advectSeeds = parseBounded(next(), "--advect-seeds", 1, 50000000);
      else if (arg == "--advect-steps") request.advectSteps = parseBounded(next(), "--advect-steps", 1, 10000000);
      else if (arg == "--advect-mode") request.advectMode = next();
      else if (arg == "--blocks") request.blocks = parseBounded(next(), "--blocks", 1, 4096);
      else if (arg == "--ghost") request.ghost = parseBounded(next(), "--ghost", 1, 8);
      else if (!arg.empty() && arg[0] != '-' && !haveOp) {
        request.op = service::parseOpToken(arg);
        haveOp = true;
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        usage(2);
      }
    }
    if (!haveOp) usage(2);
    if (request.op == service::Op::Budget && request.budgetWatts <= 0.0) {
      std::cerr << "budget requires --budget WATTS\n";
      return 2;
    }

    service::ServiceClient client(host, port, limits);
    const service::Response response = client.request(request);

    if (response.ok() && lint && request.op == service::Op::Metrics) {
      const service::Json* text = response.result.find("exposition");
      std::string error;
      if (text == nullptr ||
          !telemetry::lintPrometheus(text->asString(), &error)) {
        std::cerr << "metrics lint failed: "
                  << (text == nullptr ? "no exposition in result" : error)
                  << '\n';
        return 1;
      }
      std::cerr << "metrics lint: ok\n";
    }
    if (!traceOutPath.empty() && !response.trace.isNull()) {
      util::atomicWriteFile(traceOutPath, response.trace.dump() + "\n");
      std::cerr << "wrote " << traceOutPath << '\n';
    }

    if (rawJson) {
      std::cout << service::toJson(response).dump() << '\n';
      return response.ok() ? 0 : 1;
    }
    if (!response.ok()) {
      std::cerr << response.status << ": " << response.error << '\n';
      return 1;
    }
    printSummary(response);
    return 0;
  } catch (const pviz::Error& e) {
    std::cerr << "powerviz_client: " << e.what() << '\n';
    return 1;
  }
}
