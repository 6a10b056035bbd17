// service_loadgen — concurrent load generator for powerviz_serve.
//
//   ./bench/service_loadgen                # in-process server, 8 clients
//   ./bench/service_loadgen --port 7077    # against a running server
//   ./bench/service_loadgen --chaos        # mix fault injection into load
//
// Each client thread opens its own connection and issues a mix of
// classify / budget / stats requests drawn from a small configuration
// set, so after the first pass every heavy request is a cache hit.
// Reports per-op throughput, latency percentiles, the cold-vs-cached
// latency ratio for the repeated requests (the acceptance bar is
// >= 10x), and the server's own stats counters.
//
// --chaos adds four misbehaving clients running alongside the normal
// load: a slow-loris writer (bytes trickled so a frame never finishes
// inside the frame deadline), an oversized-frame sender, a mid-frame
// disconnector (abortive RST close), and a garbage-byte sender.  The
// run then fails unless the server stayed responsive throughout, every
// normal request was answered, and the stats counters show the defenses
// fired (nonzero timeouts and rejected_frames).  The in-process server
// is configured with tight limits in chaos mode so every scenario
// triggers quickly; against an external server the scenarios still run
// but the counter assertions apply only to what that server reports.
//
// --fleet N spawns N powerviz_serve workers (like powerviz_fleet's
// spawn mode) and spreads the client pool round-robin across them; the
// summary then reports counts per endpoint.  Failure accounting is
// per endpoint and keeps error responses, receive timeouts, and lost
// connections in separate columns — a slow worker and a broken worker
// are different findings.
//
// Environment knobs: PVIZ_LOADGEN_CLIENTS, PVIZ_LOADGEN_REQUESTS
// (per client), PVIZ_LOADGEN_SIZE override the defaults (8, 40, 16).
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fleet/spawn.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/server.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace pviz;
using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ClientResult {
  std::vector<double> classifyMs;
  std::vector<double> budgetMs;
  std::vector<double> statsMs;
  std::vector<double> cachedMs;  ///< heavy requests answered from cache
  std::vector<double> coldMs;    ///< heavy requests computed fresh
  // Failure kinds, kept separate: an `error`/malformed response, a
  // receive deadline expiring (slow server), and a dead connection are
  // different findings and must not pollute each other's counts.
  int errors = 0;
  int timeouts = 0;
  int connectionsLost = 0;
  int overloaded = 0;
  std::size_t endpoint = 0;  ///< index into the endpoint list
};

struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string label;
};

// --- Chaos agents ---------------------------------------------------------
// Four misbehaving clients, run concurrently with the normal load.
// Counters record what the *agent* observed; the authoritative server-
// side view is the stats op's timeouts/rejected_frames counters.

struct ChaosOutcome {
  std::atomic<int> lorisCut{0};          ///< slow-loris connections cut off
  std::atomic<int> oversizedRejected{0}; ///< oversized frames answered/cut
  std::atomic<int> midFrameDrops{0};     ///< abortive mid-frame disconnects
  std::atomic<int> garbageAnswered{0};   ///< garbage frames answered `error`
  std::atomic<int> garbageRecovered{0};  ///< valid request OK after garbage
};

void chaosSlowLoris(const std::string& host, int port, ChaosOutcome& out,
                    const std::atomic<bool>& stop) {
  // Trickle a frame so slowly it cannot finish inside any sane frame
  // deadline (1 byte / 40 ms ≈ 16 s for the whole frame); the server
  // must cut the connection (send starts failing).  The frame is kept
  // small so a run against a server with deadlines disabled still
  // terminates in bounded time.
  std::string frame = "{\"op\":\"ping\",\"id\":\"loris\",\"pad\":\"";
  frame.append(360, 'z');
  frame += "\"}\n";
  for (int round = 0; round < 64 && (round < 1 || !stop); ++round) {
    try {
      service::MisbehavingClient client(host, port);
      if (!client.sendSlowly(frame, 1, 40)) {
        out.lorisCut.fetch_add(1);
        continue;
      }
      // Frame got through whole (deadline disabled server-side): drain
      // the reply so the next round starts clean.
      client.readLine(2000);
    } catch (const std::exception&) {
      break;  // cannot connect (server shedding); nothing more to learn
    }
  }
}

void chaosOversized(const std::string& host, int port,
                    std::size_t frameBytes, ChaosOutcome& out,
                    const std::atomic<bool>& stop) {
  const std::string frame = std::string(frameBytes, 'x') + "\n";
  for (int round = 0; round < 64 && (round < 2 || !stop); ++round) {
    try {
      service::MisbehavingClient client(host, port);
      const bool sent = client.sendRaw(frame);
      const std::string reply = client.readLine(3000);
      // Either a clean `error` reply or a cut connection counts: the
      // server refused the frame without crashing or buffering it all.
      if (!sent || reply.find("error") != std::string::npos ||
          reply.empty()) {
        out.oversizedRejected.fetch_add(1);
      }
    } catch (const std::exception&) {
      break;
    }
  }
}

void chaosMidFrameDisconnect(const std::string& host, int port,
                             ChaosOutcome& out,
                             const std::atomic<bool>& stop) {
  for (int round = 0; round < 128 && (round < 4 || !stop); ++round) {
    try {
      service::MisbehavingClient client(host, port);
      client.sendRaw("{\"op\":\"classify\",\"algorithm\":\"cont");
      client.closeAbruptly();  // RST with half a frame outstanding
      out.midFrameDrops.fetch_add(1);
    } catch (const std::exception&) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

void chaosGarbage(const std::string& host, int port, ChaosOutcome& out,
                  const std::atomic<bool>& stop) {
  const std::string garbage = "\x01\x02\x7f not json at all {]\n";
  for (int round = 0; round < 64 && (round < 2 || !stop); ++round) {
    try {
      service::MisbehavingClient client(host, port);
      if (!client.sendRaw(garbage)) continue;
      const std::string reply = client.readLine(3000);
      if (reply.find("\"error\"") != std::string::npos) {
        out.garbageAnswered.fetch_add(1);
      }
      // The same connection must still serve a well-formed request.
      if (client.sendRaw("{\"op\":\"ping\",\"id\":\"after-garbage\"}\n")) {
        const std::string pong = client.readLine(3000);
        if (pong.find("\"ok\"") != std::string::npos) {
          out.garbageRecovered.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;  // -1 = spin up an in-process server
  int clients = benchutil::envInt("PVIZ_LOADGEN_CLIENTS", 8);
  int requestsPerClient = benchutil::envInt("PVIZ_LOADGEN_REQUESTS", 40);
  bool chaos = false;
  int fleetWorkers = 0;  // > 0: spawn a worker fleet instead
  std::string serveBin;
  const vis::Id size =
      static_cast<vis::Id>(benchutil::envInt("PVIZ_LOADGEN_SIZE", 16));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return "";
      }
      return argv[++i];
    };
    if (arg == "--port") port = static_cast<int>(util::parseInt(next(), "--port"));
    else if (arg == "--host") host = next();
    else if (arg == "--clients") clients = static_cast<int>(util::parseInt(next(), "--clients"));
    else if (arg == "--requests") requestsPerClient = static_cast<int>(util::parseInt(next(), "--requests"));
    else if (arg == "--chaos") chaos = true;
    else if (arg == "--fleet") fleetWorkers = static_cast<int>(util::parseInt(next(), "--fleet"));
    else if (arg == "--serve-bin") serveBin = next();
  }

  benchutil::printBanner(
      "service_loadgen — concurrent study/advisor service load",
      "section VII serving scenario (many in situ clients, one advisor)");

  // In-process server unless pointed at a running one or asked for a
  // fleet.  Chaos mode tightens the in-process limits so every
  // fault-injection scenario trips its defense within the run, not
  // after 30 s of politeness.
  std::unique_ptr<service::Server> server;
  std::vector<fleet::SpawnedWorker> spawned;
  std::vector<Endpoint> endpoints;
  std::size_t serverFrameBytes = 1 << 20;  // assumed bound when external
  if (fleetWorkers > 0) {
    if (serveBin.empty()) {
      const char* env = std::getenv("POWERVIZ_SERVE");
      serveBin = env != nullptr ? env : "tools/powerviz_serve";
    }
    fleet::SpawnOptions spawnOptions;
    spawnOptions.serveBin = serveBin;
    spawnOptions.args = {"--quiet", "--cache", "none", "--light"};
    for (int w = 0; w < fleetWorkers; ++w) {
      try {
        spawned.push_back(fleet::spawnServeWorker(spawnOptions));
      } catch (const std::exception& e) {
        std::cerr << "cannot spawn fleet worker from '" << serveBin
                  << "': " << e.what()
                  << "\n(--serve-bin PATH or POWERVIZ_SERVE points at the "
                     "powerviz_serve binary)\n";
        for (fleet::SpawnedWorker& worker : spawned) {
          fleet::terminateWorker(worker);
        }
        return 2;
      }
      Endpoint endpoint;
      endpoint.port = spawned.back().port;
      endpoint.label = "w" + std::to_string(w) + ":" +
                       std::to_string(endpoint.port);
      endpoints.push_back(endpoint);
    }
    host = "127.0.0.1";
    port = endpoints[0].port;  // chaos agents aim at the first worker
    std::cout << "fleet mode: " << fleetWorkers
              << " spawned workers, clients round-robin across them\n";
  } else if (port < 0) {
    service::ServerConfig config;
    config.port = 0;
    config.workers = 4;
    config.engine.study = benchutil::defaultStudyConfig();
    config.engine.study.params = core::AlgorithmParams::lightRendering();
    config.engine.study.cachePath.clear();
    if (chaos) {
      config.maxFrameBytes = 4096;
      config.frameTimeoutMs = 400;
      config.idleTimeoutMs = 5000;
    }
    serverFrameBytes = config.maxFrameBytes;
    server = std::make_unique<service::Server>(config);
    server->start();
    port = server->port();
    std::cout << "in-process server on port " << port
              << (chaos ? " (chaos limits)" : "") << "\n";
  }
  if (endpoints.empty()) {
    Endpoint endpoint;
    endpoint.host = host;
    endpoint.port = port;
    endpoint.label = host + ":" + std::to_string(port);
    endpoints.push_back(endpoint);
  }

  // The request mix: two classify targets and one budget target, so
  // every heavy configuration repeats many times across the run.
  const std::vector<core::Algorithm> classifyAlgorithms = {
      core::Algorithm::Contour, core::Algorithm::Threshold};

  std::cout << clients << " clients x " << requestsPerClient
            << " requests, size " << size << "^3\n\n";

  // Warm nothing: the first heavy requests are the cold measurements.
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto runStart = Clock::now();

  // Chaos agents run alongside the normal load so robustness is tested
  // under contention, not in isolation.
  ChaosOutcome chaosOutcome;
  std::atomic<bool> chaosStop{false};
  std::vector<std::thread> chaosThreads;
  if (chaos) {
    // Capture by value: the agent threads outlive this block scope.
    const std::size_t oversizedBytes = serverFrameBytes + 4096;
    chaosThreads.emplace_back([&] {
      chaosSlowLoris(host, port, chaosOutcome, chaosStop);
    });
    chaosThreads.emplace_back([&, oversizedBytes] {
      chaosOversized(host, port, oversizedBytes, chaosOutcome, chaosStop);
    });
    chaosThreads.emplace_back([&] {
      chaosMidFrameDisconnect(host, port, chaosOutcome, chaosStop);
    });
    chaosThreads.emplace_back([&] {
      chaosGarbage(host, port, chaosOutcome, chaosStop);
    });
  }

  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = results[static_cast<std::size_t>(c)];
      out.endpoint = static_cast<std::size_t>(c) % endpoints.size();
      const Endpoint& target = endpoints[out.endpoint];
      try {
        service::ServiceClient client(target.host, target.port);
        for (int r = 0; r < requestsPerClient; ++r) {
          service::Request request;
          std::vector<double>* bucket = nullptr;
          switch (r % 4) {
            case 0:
            case 1:
              request.op = service::Op::Classify;
              request.algorithm =
                  classifyAlgorithms[static_cast<std::size_t>(r) %
                                     classifyAlgorithms.size()];
              request.size = size;
              bucket = &out.classifyMs;
              break;
            case 2:
              request.op = service::Op::Budget;
              request.algorithm = core::Algorithm::Contour;
              request.size = size;
              request.budgetWatts = 65.0;
              bucket = &out.budgetMs;
              break;
            default:
              request.op = service::Op::Stats;
              bucket = &out.statsMs;
              break;
          }
          const auto start = Clock::now();
          try {
            const service::Response response = client.request(request);
            const double ms = millisSince(start);
            if (response.status == "overloaded") {
              ++out.overloaded;
              continue;
            }
            if (!response.ok()) {
              ++out.errors;
              continue;
            }
            bucket->push_back(ms);
            if (request.op != service::Op::Stats) {
              (response.cached ? out.cachedMs : out.coldMs).push_back(ms);
            }
          } catch (const service::TimeoutError&) {
            // Slow, not broken: count and keep going on the same
            // connection (the late reply is skipped by id matching).
            ++out.timeouts;
          }
        }
      } catch (const service::ConnectionLostError& e) {
        std::cerr << "client " << c << " (" << target.label
                  << "): connection lost: " << e.what() << '\n';
        ++out.connectionsLost;
      } catch (const std::exception& e) {
        std::cerr << "client " << c << " (" << target.label << "): "
                  << e.what() << '\n';
        ++out.errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  chaosStop = true;
  for (auto& t : chaosThreads) t.join();
  const double wallSeconds = millisSince(runStart) / 1000.0;

  // Aggregate — globally for the latency tables, per endpoint for the
  // failure accounting.
  std::vector<double> classifyMs, budgetMs, statsMs, cachedMs, coldMs;
  int errors = 0;
  int timeouts = 0;
  int connectionsLost = 0;
  int overloaded = 0;
  struct EndpointTotals {
    std::size_t completed = 0;
    int errors = 0;
    int timeouts = 0;
    int connectionsLost = 0;
    int overloaded = 0;
  };
  std::vector<EndpointTotals> perEndpoint(endpoints.size());
  for (const ClientResult& r : results) {
    classifyMs.insert(classifyMs.end(), r.classifyMs.begin(), r.classifyMs.end());
    budgetMs.insert(budgetMs.end(), r.budgetMs.begin(), r.budgetMs.end());
    statsMs.insert(statsMs.end(), r.statsMs.begin(), r.statsMs.end());
    cachedMs.insert(cachedMs.end(), r.cachedMs.begin(), r.cachedMs.end());
    coldMs.insert(coldMs.end(), r.coldMs.begin(), r.coldMs.end());
    errors += r.errors;
    timeouts += r.timeouts;
    connectionsLost += r.connectionsLost;
    overloaded += r.overloaded;
    EndpointTotals& t = perEndpoint[r.endpoint];
    t.completed += r.classifyMs.size() + r.budgetMs.size() + r.statsMs.size();
    t.errors += r.errors;
    t.timeouts += r.timeouts;
    t.connectionsLost += r.connectionsLost;
    t.overloaded += r.overloaded;
  }
  const std::size_t completed =
      classifyMs.size() + budgetMs.size() + statsMs.size();

  util::TextTable table;
  table.setHeader({"Op", "Count", "p50(ms)", "p95(ms)", "Max(ms)"});
  auto addRow = [&](const char* name, std::vector<double>& ms) {
    if (ms.empty()) return;
    double maxMs = 0.0;
    for (double m : ms) maxMs = std::max(maxMs, m);
    table.addRow({name, std::to_string(ms.size()),
                  util::formatFixed(util::percentile(ms, 0.50), 2),
                  util::formatFixed(util::percentile(ms, 0.95), 2),
                  util::formatFixed(maxMs, 2)});
  };
  addRow("classify", classifyMs);
  addRow("budget", budgetMs);
  addRow("stats", statsMs);
  addRow("heavy/cold", coldMs);
  addRow("heavy/cached", cachedMs);
  table.print(std::cout);

  std::cout << '\n'
            << completed << " requests in "
            << util::formatFixed(wallSeconds, 2) << " s ("
            << util::formatFixed(static_cast<double>(completed) / wallSeconds,
                                 0)
            << " req/s across " << clients << " clients), " << errors
            << " errors, " << timeouts << " timeouts, " << connectionsLost
            << " connections lost, " << overloaded << " overloaded\n";

  if (endpoints.size() > 1) {
    std::cout << "\nper endpoint:\n";
    util::TextTable endpointTable;
    endpointTable.setHeader({"Endpoint", "Completed", "Errors", "Timeouts",
                             "ConnLost", "Overloaded"});
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
      const EndpointTotals& t = perEndpoint[e];
      endpointTable.addRow({endpoints[e].label, std::to_string(t.completed),
                            std::to_string(t.errors),
                            std::to_string(t.timeouts),
                            std::to_string(t.connectionsLost),
                            std::to_string(t.overloaded)});
    }
    endpointTable.print(std::cout);
  }

  if (!coldMs.empty() && !cachedMs.empty()) {
    const double cold = util::percentile(coldMs, 0.50);
    const double cached = util::percentile(cachedMs, 0.50);
    std::cout << "cold p50 " << util::formatFixed(cold, 2)
              << " ms vs cached p50 " << util::formatFixed(cached, 3)
              << " ms: " << util::formatFixed(cold / cached, 1)
              << "x speedup from the result cache\n";
  }

  // The server's own latency view: per-op p50/p95/p99 from the stats
  // reply's telemetry histograms.  These are queue-to-response-written
  // times measured server-side, so they exclude client and socket time
  // — the gap against the client-side table above is the wire tax.
  {
    try {
      service::ServiceClient::Limits limits;
      limits.recvTimeoutMs = 5000;
      service::ServiceClient statsClient(host, port, limits);
      service::Request statsRequest;
      statsRequest.op = service::Op::Stats;
      const service::Response resp = statsClient.request(statsRequest);
      if (resp.ok()) {
        if (const service::Json* uptime = resp.result.find("uptime_ms")) {
          std::cout << "\nserver-side latency (uptime "
                    << util::formatFixed(uptime->asNumber() / 1000.0, 1)
                    << " s):\n";
        }
        util::TextTable serverTable;
        serverTable.setHeader({"Op", "Requests", "p50(ms)", "p95(ms)",
                               "p99(ms)"});
        if (const service::Json* ops = resp.result.find("ops")) {
          for (const auto& [opName, opStats] : ops->asObject()) {
            const service::Json* requests = opStats.find("requests");
            if (requests == nullptr || requests->asInt() == 0) continue;
            auto pct = [&opStats](const char* key) {
              const service::Json* v = opStats.find(key);
              return util::formatFixed(v != nullptr ? v->asNumber() : 0.0,
                                       2);
            };
            serverTable.addRow({opName, std::to_string(requests->asInt()),
                                pct("p50_latency_ms"), pct("p95_latency_ms"),
                                pct("p99_latency_ms")});
          }
        }
        serverTable.print(std::cout);
      }
    } catch (const std::exception& e) {
      std::cerr << "server-side stats fetch failed: " << e.what() << '\n';
    }
  }

  bool chaosOk = true;
  if (chaos) {
    // The server's own view of the attack: after the run it must still
    // answer stats, and the defense counters must have fired.
    std::uint64_t serverTimeouts = 0, rejectedFrames = 0;
    std::size_t connectionsActive = 0;
    bool statsAlive = false;
    try {
      service::ServiceClient::Limits limits;
      limits.recvTimeoutMs = 5000;
      service::ServiceClient statsClient(host, port, limits);
      service::Request statsRequest;
      statsRequest.op = service::Op::Stats;
      const service::Response resp = statsClient.request(statsRequest);
      if (resp.ok()) {
        statsAlive = true;
        auto counter = [&resp](const char* key) -> std::uint64_t {
          const service::Json* v = resp.result.find(key);
          return v != nullptr ? static_cast<std::uint64_t>(v->asInt()) : 0;
        };
        serverTimeouts = counter("timeouts");
        rejectedFrames = counter("rejected_frames");
        connectionsActive = static_cast<std::size_t>(
            counter("connections_active"));
      }
    } catch (const std::exception& e) {
      std::cerr << "stats after chaos failed: " << e.what() << '\n';
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::cout << "\nchaos: " << chaosOutcome.lorisCut.load()
              << " slow-loris cut, " << chaosOutcome.oversizedRejected.load()
              << " oversized rejected, " << chaosOutcome.midFrameDrops.load()
              << " mid-frame disconnects, "
              << chaosOutcome.garbageAnswered.load() << " garbage answered, "
              << chaosOutcome.garbageRecovered.load()
              << " recovered after garbage\n"
              << "server after chaos: " << (statsAlive ? "alive" : "DEAD")
              << ", timeouts " << serverTimeouts << ", rejected_frames "
              << rejectedFrames << ", connections_active "
              << connectionsActive << ", peak RSS "
              << usage.ru_maxrss / 1024 << " MiB\n";

    chaosOk = statsAlive && serverTimeouts > 0 && rejectedFrames > 0 &&
              chaosOutcome.garbageRecovered.load() > 0;
    std::cout << (chaosOk ? "CHAOS PASS" : "CHAOS FAIL")
              << ": server survived fault injection with its defenses "
              << (chaosOk ? "firing" : "NOT all firing") << '\n';
  }

  if (server != nullptr) {
    std::cout << "\nserver stats: " << server->statsJson().dump() << '\n';
    server->stop();
    // Drained server: every reader joined, so no connection can leak.
    const double active = server->metrics().value(
        service::ServiceMetrics::kConnectionsActive);
    if (active != 0.0) {
      std::cerr << "leaked reader threads: " << active
                << " connections still active after stop()\n";
      chaosOk = false;
    }
  }
  for (fleet::SpawnedWorker& worker : spawned) {
    fleet::terminateWorker(worker);
  }
  return errors == 0 && connectionsLost == 0 && chaosOk ? 0 : 1;
}
