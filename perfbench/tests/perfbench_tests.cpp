// perfbench's own tests: seeded inputs are deterministic, replies scan
// correctly, self times of a span tree add up to its root, and a
// smoke-size run prints every metric BENCHMARK.json names, with its
// unit.
//
//   ctest --test-dir .bench_build --output-on-failure
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "inputs.h"
#include "ledger.h"
#include "loadgen.h"
#include "service/json.h"

namespace {

using namespace perfbench;
using pviz::service::Json;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << '\n';
  }
}

StreamSpec mixedSpec(std::uint64_t seed) {
  StreamSpec spec;
  spec.seed = seed;
  spec.seconds = 2.0;
  spec.hitRate = 2000.0;
  spec.statsShare = 0.01;
  spec.missRate = 20.0;
  return spec;
}

std::set<Id> missKeys(const std::vector<Arrival>& arrivals) {
  std::set<Id> keys;
  for (const Arrival& a : arrivals) {
    if (a.kind == Arrival::Kind::Miss) keys.insert(a.missSeeds);
  }
  return keys;
}

void testFramesAreSeeded() {
  const auto hot = hotSet();
  const auto a = openLoopStream(mixedSpec(7), hot);
  const auto b = openLoopStream(mixedSpec(7), hot);
  const auto c = openLoopStream(mixedSpec(8), hot);
  check(a.size() == b.size(), "same seed, same arrival count");
  bool identical = a.size() == b.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].frame == b[i].frame && a[i].dueMs == b[i].dueMs;
  }
  check(identical, "same seed gives byte-identical frames");

  const std::set<Id> keysA = missKeys(a);
  const std::set<Id> keysC = missKeys(c);
  std::size_t missesA = 0;
  for (const Arrival& x : a) missesA += x.kind == Arrival::Kind::Miss;
  check(missesA > 10, "the stream carries misses");
  check(keysA.size() == missesA, "miss keys are distinct within a run");
  check(keysA != keysC, "a different seed gives different miss keys");
  for (const Id k : keysA) {
    check(k >= kMissSeedsLo && k <= kMissSeedsHi, "miss key in range");
  }
}

void testTemplateMatchesFrame() {
  for (const Request& r : hotSet()) {
    check(frameTemplate(r, false).with(42) == frameOf(r, 42, false),
          "frame template reproduces frameOf");
  }
}

void testScanReply() {
  const std::string line =
      R"({"id":"12","op":"classify","status":"ok","cached":true,)"
      R"("elapsed_ms":0.25,"result":{"a":[1,2]}})";
  Reply reply;
  check(scanReply(line, reply), "scan ok reply");
  check(reply.id == 12 && reply.status == "ok" && reply.cached,
        "scan id/status/cached");
  check(reply.elapsedMs == 0.25, "scan elapsed");
  check(reply.result == R"({"a":[1,2]})", "scan result bytes");

  const std::string traced =
      R"({"id":"3","op":"stats","status":"ok","cached":false,"elapsed_ms":1,)"
      R"("result":{"x":1},"trace":{"displayTimeUnit":"ms","traceEvents":[]}})";
  check(scanReply(traced, reply) && reply.result == R"({"x":1})",
        "scan result bytes ahead of a trace");

  const std::string error =
      R"({"id":"4","op":"classify","status":"overloaded","error":"full"})";
  check(scanReply(error, reply) && reply.status == "overloaded",
        "scan overloaded reply");
  check(!scanReply("garbage", reply), "reject garbage");
}

void testSelfTimesSumToRoot() {
  auto span = [](const char* name, std::uint64_t id, std::uint64_t start,
                 std::uint64_t dur) {
    TraceSpan s;
    s.name = name;
    s.traceId = id;
    s.startUs = start;
    s.durationUs = dur;
    return s;
  };
  const std::vector<TraceSpan> spans = {
      span("root", 1, 100, 1000),  span("child-a", 1, 150, 300),
      span("leaf", 1, 200, 100),   span("child-b", 1, 600, 400),
      span("other", 2, 120, 50),   // another trace id: not a child
  };
  const std::vector<double> self = selfTimesUs(spans);
  check(self[0] == 300.0, "root self time");
  check(self[1] == 200.0, "child self time");
  check(self[2] == 100.0 && self[3] == 400.0 && self[4] == 50.0,
        "leaf self times");
  check(std::accumulate(self.begin(), self.begin() + 4, 0.0) == 1000.0,
        "self times of one tree sum to its root");
}

void testUncoveredKernelTimeIsUnattributed() {
  auto span = [](const char* name, const char* category, std::uint64_t id,
                 std::uint64_t start, std::uint64_t dur) {
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.traceId = id;
    s.startUs = start;
    s.durationUs = dur;
    return s;
  };
  // A kernel request (1000 µs, phases cover 600) and a hit (200 µs, no
  // children).
  const std::vector<TraceSpan> spans = {
      span("request/study", "service", 1, 0, 1000),
      span("mc-scan", "viz", 1, 100, 400),
      span("simulate/contour", "core", 1, 600, 200),
      span("request/classify", "service", 2, 0, 200),
  };
  MetricMap metrics;
  const Ledger ledger = buildLedger(spans, 1.2, metrics);
  check(ledger.unattributedMs() == 0.4, "kernel request's own time is unattributed");
  check(ledger.stepMs.at("service.handle") == 0.2, "a hit's request span is handling");
  check(std::abs(ledger.coverage() - 0.8 / 1.2) < 1e-12,
        "coverage counts named steps only");
}

/// Run the benchmark binary at smoke size; return its last stdout line.
std::string smokeRun(const std::string& args) {
  const std::string command = std::string(PERFBENCH_BINARY) + " " + args +
                              " --out " + PERFBENCH_SMOKE_DIR +
                              " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  ::pclose(pipe);
  std::istringstream lines(out);
  std::string line, last;
  while (std::getline(lines, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

void testSmokeRunPrintsEveryMetric() {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  const Json manifest = Json::parse(text.str());
  for (const char* trace : {"0", "1"}) {
    const std::string line = smokeRun(
        "--workload advisor_hot --seed 3 --seconds 1 --trace " +
        std::string(trace));
    Json result;
    try {
      result = Json::parse(line);
    } catch (const std::exception& e) {
      check(false, std::string("smoke run output is not JSON: ") + line);
      continue;
    }
    check(result.find("correct") != nullptr && result.find("correct")->asBool(),
          std::string("smoke run correct, trace ") + trace);
    const Json* metrics = result.find("metrics");
    const char* group = std::string(trace) == "0" ? "end_to_end" : "per_layer";
    for (const Json& m : manifest.find(group)->asArray()) {
      const std::string name = m.find("name")->asString();
      const Json* got = metrics == nullptr ? nullptr : metrics->find(name);
      check(got != nullptr && got->find("value")->isNumber() &&
                got->find("unit")->asString() == m.find("unit")->asString(),
            "smoke run prints " + name + " with its unit");
    }
    check(metrics != nullptr &&
              metrics->asObject().size() == manifest.find(group)->asArray().size(),
          "smoke run prints exactly the named metrics");
  }
}

}  // namespace

int main() {
  testFramesAreSeeded();
  testTemplateMatchesFrame();
  testScanReply();
  testSelfTimesSumToRoot();
  testUncoveredKernelTimeIsUnattributed();
  testSmokeRunPrintsEveryMetric();
  if (failures == 0) std::cout << "perfbench_tests: all passed\n";
  return failures == 0 ? 0 : 1;
}
