#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/algorithms.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

namespace service = pviz::service;

std::vector<Request> hotSet() {
  std::vector<Request> hot;
  for (const pviz::core::Algorithm algorithm : pviz::core::allAlgorithms()) {
    Request classify;
    classify.op = service::Op::Classify;
    classify.algorithm = algorithm;
    classify.size = kAdvisorSize;
    hot.push_back(classify);

    Request budget = classify;
    budget.op = service::Op::Budget;
    budget.budgetWatts = kHotBudgetWatts;
    hot.push_back(budget);
  }
  return hot;
}

Request missRequest(Id seeds) {
  Request miss;
  miss.op = service::Op::Classify;
  miss.algorithm = pviz::core::Algorithm::ParticleAdvection;
  miss.size = kAdvisorSize;
  miss.advectSeeds = seeds;
  miss.advectSteps = kMissSteps;
  return miss;
}

std::string frameOf(Request request, std::size_t id, bool trace) {
  request.id = std::to_string(id);
  request.trace = trace;
  return service::toJson(request).dump();
}

FrameTemplate frameTemplate(const Request& request, bool trace) {
  // Split a frame with a marker id; ids are decimal, so the marker
  // cannot occur anywhere else in the line.
  const std::string marker = "\"id\":\"x";
  Request marked = request;
  marked.id = "x";
  marked.trace = trace;
  const std::string line = service::toJson(marked).dump();
  const std::size_t at = line.find(marker);
  PVIZ_REQUIRE(at != std::string::npos, "frame template: id not found");
  const std::size_t idAt = at + marker.size() - 1;
  return FrameTemplate{line.substr(0, idAt), line.substr(idAt + 1)};
}

namespace {

/// Exponential inter-arrival gap of a Poisson process, in ms.
double nextGapMs(pviz::util::Rng& rng, double ratePerSecond) {
  return -std::log1p(-rng.uniform()) * 1000.0 / ratePerSecond;
}

}  // namespace

std::vector<Arrival> openLoopStream(const StreamSpec& spec,
                                    const std::vector<Request>& hot) {
  PVIZ_REQUIRE(!hot.empty(), "open-loop stream needs a hot set");
  const double horizonMs = spec.seconds * 1000.0;
  std::vector<Arrival> arrivals;

  if (spec.hitRate > 0.0) {
    pviz::util::Rng rng(spec.seed);
    for (double t = nextGapMs(rng, spec.hitRate); t < horizonMs;
         t += nextGapMs(rng, spec.hitRate)) {
      Arrival a;
      a.dueMs = t;
      if (rng.uniform() < spec.statsShare) {
        a.kind = Arrival::Kind::Stats;
      } else {
        a.kind = Arrival::Kind::Hit;
        a.key = static_cast<int>(rng.below(hot.size()));
      }
      arrivals.push_back(a);
    }
  }

  if (spec.missRate > 0.0) {
    // A seeded shuffle of the whole seed-count range: drawing misses in
    // shuffled order keeps every miss key distinct within the run.
    pviz::util::Rng rng(spec.seed ^ 0x6d69737365735eULL);
    std::vector<Id> pool(static_cast<std::size_t>(kMissSeedsHi - kMissSeedsLo + 1));
    std::iota(pool.begin(), pool.end(), kMissSeedsLo);
    for (std::size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.below(i)]);
    }
    std::size_t drawn = 0;
    for (double t = nextGapMs(rng, spec.missRate); t < horizonMs;
         t += nextGapMs(rng, spec.missRate)) {
      PVIZ_REQUIRE(drawn < pool.size(), "open-loop stream: miss keys exhausted");
      Arrival a;
      a.dueMs = t;
      a.kind = Arrival::Kind::Miss;
      a.missSeeds = pool[drawn++];
      arrivals.push_back(a);
    }
  }

  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.dueMs < y.dueMs;
                   });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    const bool trace = a.dueMs >= spec.traceFromMs;
    Request request;
    switch (a.kind) {
      case Arrival::Kind::Hit:
        request = hot[static_cast<std::size_t>(a.key)];
        break;
      case Arrival::Kind::Stats:
        request.op = service::Op::Stats;
        break;
      case Arrival::Kind::Miss:
        request = missRequest(a.missSeeds);
        break;
    }
    a.frame = frameOf(request, i, trace);
  }
  return arrivals;
}

}  // namespace perfbench
