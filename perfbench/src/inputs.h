// Seeded inputs of the benchmark workloads.
//
// Everything a workload sends is generated here from the run's seed and
// nothing else, so one seed always yields byte-identical request frames
// (perfbench_tests checks that).  The program under test only ever sees
// the generated frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"

namespace perfbench {

using pviz::service::Request;
using pviz::vis::Id;

/// Dataset size of the advisor workloads' hot set and misses.
inline constexpr Id kAdvisorSize = 32;
/// Budget of the hot set's `budget` requests, in watts.
inline constexpr double kHotBudgetWatts = 70.0;
/// Range the misses' never-seen `advect_seeds` values are drawn from.
inline constexpr Id kMissSeedsLo = 1000;
inline constexpr Id kMissSeedsHi = 3000;
/// RK4 steps per miss particle: short kernels, so a run sees hundreds.
inline constexpr Id kMissSteps = 100;

/// The advisor hot set: `classify` and `budget` for each of the eight
/// algorithms at kAdvisorSize — 16 keys, warmed during set-up.
std::vector<Request> hotSet();

/// A miss: `classify` of advection at kAdvisorSize with `seeds` particles
/// of kMissSteps steps.
Request missRequest(Id seeds);

/// The request line sent on the wire (no trailing newline), with
/// `id` as its correlation token and `trace` set when asked.
std::string frameOf(Request request, std::size_t id, bool trace);

/// One scheduled request of an open-loop stream.
struct Arrival {
  enum class Kind { Hit, Stats, Miss };
  double dueMs = 0.0;  ///< offset from the stream's start
  Kind kind = Kind::Hit;
  int key = -1;        ///< hot-set index (Hit only)
  Id missSeeds = 0;    ///< advect_seeds (Miss only)
  std::string frame;   ///< the request line; its id is the arrival index
};

struct StreamSpec {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  double hitRate = 0.0;      ///< Poisson rate of hits + stats, per second
  double statsShare = 0.0;   ///< share of that stream asking `stats`
  double missRate = 0.0;     ///< Poisson rate of misses, per second
  double traceFromMs = 1e300;  ///< arrivals due from here on carry trace
};

/// Two merged Poisson streams: hits/stats over `hot`, and misses with
/// distinct advect_seeds drawn (without replacement) from
/// [kMissSeedsLo, kMissSeedsHi].  Sorted by due time.
std::vector<Arrival> openLoopStream(const StreamSpec& spec,
                                    const std::vector<Request>& hot);

/// A request line split around its id, for senders that number frames
/// as they go: head + id + tail is frameOf(request, id, trace).
struct FrameTemplate {
  std::string head;
  std::string tail;
  std::string with(std::size_t id) const {
    return head + std::to_string(id) + tail;
  }
};
FrameTemplate frameTemplate(const Request& request, bool trace);

}  // namespace perfbench
