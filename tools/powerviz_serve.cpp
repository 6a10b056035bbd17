// powerviz_serve — the PowerViz study/advisor service.
//
//   powerviz_serve --port 7077 --workers 8 --cache profiles.txt
//   powerviz_serve --port 0          # ephemeral; the port is printed
//
// Speaks newline-delimited JSON over localhost TCP (see
// src/service/protocol.h).  Prints one line to stdout once ready:
//
//   powerviz_serve listening port=NNNN
//
// so wrappers (tests, the load generator) can scrape the bound port.
// SIGINT/SIGTERM drain the request queue — every admitted request is
// answered — then the process exits 0.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "service/server.h"
#include "util/error.h"
#include "util/log.h"
#include "util/options.h"

namespace {

using namespace pviz;

[[noreturn]] void usage(int exitCode) {
  std::cout <<
      R"(powerviz_serve — serve study/classify/budget requests over localhost TCP

options:
  --port N            listen port (0 = ephemeral, printed on stdout;
                      default 7077)
  --host ADDR         listen address (default 127.0.0.1)
  --workers N         request worker threads (default 4)
  --queue N           bounded request queue depth; requests beyond it get
                      an `overloaded` response (default 64)
  --max-connections N concurrent client bound; connections beyond it are
                      shed at accept time (default 64)
  --max-frame-bytes N request frame size bound; larger frames get an
                      `error` reply (default 1048576)
  --max-json-depth N  request JSON nesting bound (default 64)
  --idle-timeout-ms N close connections with no traffic for N ms
                      (0 disables; default 300000)
  --frame-timeout-ms N close connections whose started frame has not
                      completed after N ms — cuts off slow-loris writers
                      (0 disables; default 5000)
  --request-timeout-ms N answer `error` instead of dispatching a request
                      that waited in the queue longer than N ms
                      (0 disables; default 0)
  --cache PATH        on-disk characterization cache shared with the
                      study tools ("none" disables; default none)
  --result-cache N    in-memory result cache entries (0 disables,
                      default 1024)
  --caps w,w,...      default cap sweep for classify/study requests
  --cycles N          default visualization cycles (default 10)
  --backend NAME      execution backend for requests that don't name one:
                      serial | threaded (default: the POWERVIZ_BACKEND
                      environment default, else threaded)
  --slo-p99-ms SPEC   per-op p99 latency objectives feeding the SLO
                      burn-rate gauges and the slow-request event log.
                      SPEC is `op=ms[,op=ms...]` (e.g.
                      `study=250,classify=100`) or a bare number, which
                      applies to the `study` op
  --trace-buffer N    retained spans of fleet-traced requests served by
                      the `trace_dump` op (default 8192)
  --light             light rendering parameters (few cameras, small
                      images) — fast characterizations for tests/demos
  --quiet             suppress progress logging
                      (PVIZ_LOG=debug|info|warn|error|off overrides)
  -h, --help          this text
)";
  std::exit(exitCode);
}

int signalPipe[2] = {-1, -1};

void onShutdownSignal(int) {
  const char byte = 's';
  // Self-pipe: write() is async-signal-safe; the main thread does the
  // actual drain outside signal context.
  [[maybe_unused]] const ssize_t n = ::write(signalPipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerConfig config;
  config.port = 7077;
  config.engine.study.cachePath.clear();
  util::setDefaultLogLevel(util::LogLevel::Info);

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
      else if (arg == "--port") config.port = static_cast<int>(util::parseInt(next(), "--port"));
      else if (arg == "--host") config.host = next();
      else if (arg == "--workers") config.workers = static_cast<int>(util::parseInt(next(), "--workers"));
      else if (arg == "--queue") config.maxQueueDepth = static_cast<std::size_t>(util::parseInt(next(), "--queue"));
      else if (arg == "--max-connections") config.maxConnections = static_cast<std::size_t>(util::parseInt(next(), "--max-connections"));
      else if (arg == "--max-frame-bytes") config.maxFrameBytes = static_cast<std::size_t>(util::parseInt(next(), "--max-frame-bytes"));
      else if (arg == "--max-json-depth") config.maxJsonDepth = static_cast<std::size_t>(util::parseInt(next(), "--max-json-depth"));
      else if (arg == "--idle-timeout-ms") config.idleTimeoutMs = static_cast<int>(util::parseInt(next(), "--idle-timeout-ms"));
      else if (arg == "--frame-timeout-ms") config.frameTimeoutMs = static_cast<int>(util::parseInt(next(), "--frame-timeout-ms"));
      else if (arg == "--request-timeout-ms") config.requestTimeoutMs = static_cast<int>(util::parseInt(next(), "--request-timeout-ms"));
      else if (arg == "--result-cache") config.engine.cacheEntries = static_cast<std::size_t>(util::parseInt(next(), "--result-cache"));
      else if (arg == "--caps") config.engine.study.capsWatts = util::parseCapList(next());
      else if (arg == "--cycles") config.engine.study.cycles = static_cast<int>(util::parseInt(next(), "--cycles"));
      else if (arg == "--backend") config.engine.backend = next();
      else if (arg == "--slo-p99-ms") {
        // `op=ms,op=ms` or a bare number applying to `study`.
        const std::string spec = next();
        std::size_t start = 0;
        while (start <= spec.size()) {
          std::size_t comma = spec.find(',', start);
          if (comma == std::string::npos) comma = spec.size();
          const std::string part = spec.substr(start, comma - start);
          if (!part.empty()) {
            const std::size_t eq = part.find('=');
            const std::string op =
                eq == std::string::npos ? "study" : part.substr(0, eq);
            const std::string ms =
                eq == std::string::npos ? part : part.substr(eq + 1);
            config.sloP99Ms.emplace_back(
                op, util::parseDouble(ms, "--slo-p99-ms"));
          }
          start = comma + 1;
        }
      }
      else if (arg == "--trace-buffer") config.traceBufferSpans = static_cast<std::size_t>(util::parseInt(next(), "--trace-buffer"));
      else if (arg == "--light") config.engine.study.params = core::AlgorithmParams::lightRendering();
      else if (arg == "--quiet") util::setLogLevel(util::LogLevel::Warn);
      else if (arg == "--cache") {
        const std::string path = next();
        config.engine.study.cachePath = path == "none" ? "" : path;
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        usage(2);
      }
    }

    if (::pipe(signalPipe) != 0) {
      std::cerr << "cannot create signal pipe\n";
      return 1;
    }
    struct sigaction action {};
    action.sa_handler = onShutdownSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    service::Server server(config);
    server.start();
    std::printf("powerviz_serve listening port=%d\n", server.port());
    std::fflush(stdout);

    // Block until a shutdown signal lands on the self-pipe.
    char byte = 0;
    while (::read(signalPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr, "powerviz_serve: draining...\n");
    server.stop();

    const service::ServiceMetrics& metrics = server.metrics();
    std::printf(
        "powerviz_serve exiting: %.0f requests, %.0f overloaded, "
        "%.0f timeouts, %.0f rejected frames, %.0f shed connections\n",
        metrics.value(service::ServiceMetrics::kTotalRequests),
        metrics.value(service::ServiceMetrics::kOverloaded),
        metrics.value(service::ServiceMetrics::kTimeouts),
        metrics.value(service::ServiceMetrics::kRejectedFrames),
        metrics.value(service::ServiceMetrics::kShedConnections));
    return 0;
  } catch (const pviz::Error& e) {
    std::cerr << "powerviz_serve: " << e.what() << '\n';
    return 1;
  }
}
