// Load generation against one powerviz_serve over raw sockets.
//
// Two shapes:
//   * runOpenLoop — a seeded arrival schedule sent on time regardless of
//     replies.  One sender thread writes each frame at its due time over
//     a few connections; one receiver thread polls them all and matches
//     replies by id.  Latency is timed from the *due* time, so a stall
//     also charges the requests it delayed; the sender's own lateness is
//     recorded so a generator that fell behind can be rejected.
//   * runSaturation — a fixed number of connections, each keeping a
//     fixed number of hits in flight, for the hot_rps ceiling.
//
// Every reply is checked as it arrives: hits must be `ok`, cached and
// byte-equal to the warm-up payload of their key; misses `ok` and
// uncached; `stats` `ok`.  Anything else — an error, `overloaded`, a
// wrong payload, no reply before the drain deadline, a lost connection
// — is a failed operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// A reply's envelope fields, scanned without a full JSON parse (the
/// server writes the envelope keys in a fixed order, protocol.cpp).
struct Reply {
  std::size_t id = 0;
  std::string_view status;
  bool cached = false;
  double elapsedMs = 0.0;
  std::string_view result;  ///< bytes of the `result` member
};
/// False when the line is not a well-formed reply envelope.
bool scanReply(std::string_view line, Reply& out);

/// Steady-clock nanoseconds; divided by 1000 it is the time base of the
/// server's trace spans (both processes read CLOCK_MONOTONIC).
std::uint64_t nowNs();

/// Blocking localhost connection speaking newline-delimited frames.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Write all of `data`; false when the peer is gone.
  bool sendAll(std::string_view data);
  /// One recv(); appends every completed line to `lines`.  False on EOF
  /// or error.
  bool readLines(std::vector<std::string>& lines);
  /// Send one frame and block for one reply line (set-up traffic).
  std::string roundTrip(const std::string& frame);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Per-arrival outcome of an open-loop run.
struct OpenLoopResult {
  std::uint64_t startNs = 0;          ///< steady ns of the stream's t = 0
  std::vector<std::uint64_t> sentNs;  ///< 0 = never sent
  std::vector<std::uint64_t> recvNs;  ///< 0 = never answered
  std::vector<std::string> failure;   ///< empty = checked and correct
  std::vector<std::string> tracedLines;  ///< raw reply of traced arrivals
  std::vector<std::string> missResults;  ///< result bytes of misses
};

/// `expected[key]` is the warm-up result payload of hot-set key `key`.
OpenLoopResult runOpenLoop(int port, const std::vector<Arrival>& arrivals,
                           const std::vector<std::string>& expected,
                           int connections, double drainSeconds);

struct SaturationResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> windowRps;  ///< completions per second, per window
  std::string firstFailure;
};

SaturationResult runSaturation(int port, const std::vector<Request>& hot,
                               const std::vector<std::string>& expected,
                               std::uint64_t seed, int connections, int depth,
                               double seconds);

}  // namespace perfbench
