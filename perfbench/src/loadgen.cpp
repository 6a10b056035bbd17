#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Value of `"key":` in `line` from `from` on, up to the next `,` or `}`
/// (or the closing quote, for strings).  Empty when absent.
std::string_view field(std::string_view line, std::string_view key,
                       std::size_t& from) {
  const std::size_t at = line.find(key, from);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + key.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  if (end == std::string_view::npos) return {};
  from = end;
  return line.substr(begin, end - begin);
}

/// Check one reply against what its request must return; empty = correct.
std::string verdict(const Reply& reply, Arrival::Kind kind,
                    const std::string* expected) {
  if (reply.status != "ok") return "status " + std::string(reply.status);
  switch (kind) {
    case Arrival::Kind::Hit:
      if (!reply.cached) return "hit not served from the result cache";
      if (reply.result != *expected) return "hit payload differs from warm-up";
      return {};
    case Arrival::Kind::Miss:
      if (reply.cached) return "miss served from the result cache";
      return {};
    case Arrival::Kind::Stats:
      return {};
  }
  return "unknown kind";
}

}  // namespace

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

bool scanReply(std::string_view line, Reply& out) {
  std::size_t pos = 0;
  const std::string_view id = field(line, "\"id\":", pos);
  if (id.empty()) return false;
  out.id = 0;
  for (const char c : id) {
    if (c < '0' || c > '9') return false;
    out.id = out.id * 10 + static_cast<std::size_t>(c - '0');
  }
  out.status = field(line, "\"status\":", pos);
  if (out.status.empty()) return false;
  out.cached = false;
  out.elapsedMs = 0.0;
  out.result = {};
  if (out.status != "ok") return true;
  out.cached = field(line, "\"cached\":", pos) == "true";
  const std::string elapsed(field(line, "\"elapsed_ms\":", pos));
  out.elapsedMs = std::strtod(elapsed.c_str(), nullptr);
  constexpr std::string_view kResult = "\"result\":";
  const std::size_t at = line.find(kResult, pos);
  if (at == std::string_view::npos) return false;
  // The result is the last member unless the request asked for a trace.
  std::size_t end = line.rfind(",\"trace\":{\"displayTimeUnit\"");
  if (end == std::string_view::npos || end < at) end = line.size() - 1;
  out.result = line.substr(at + kResult.size(), end - at - kResult.size());
  return true;
}

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw pviz::Error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw pviz::Error("cannot connect to port " + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::sendAll(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool Connection::readLines(std::vector<std::string>& lines) {
  char chunk[65536];
  ssize_t n = 0;
  do {
    n = ::recv(fd_, chunk, sizeof chunk, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl = buffer_.find('\n'); nl != std::string::npos;
       nl = buffer_.find('\n', start)) {
    lines.emplace_back(buffer_, start, nl - start);
    start = nl + 1;
  }
  buffer_.erase(0, start);
  return true;
}

std::string Connection::roundTrip(const std::string& frame) {
  if (!sendAll(frame + '\n')) throw pviz::Error("connection lost on send");
  std::vector<std::string> lines;
  while (lines.empty()) {
    if (!readLines(lines)) throw pviz::Error("connection lost awaiting reply");
  }
  return lines.front();
}

OpenLoopResult runOpenLoop(int port, const std::vector<Arrival>& arrivals,
                           const std::vector<std::string>& expected,
                           int connections, double drainSeconds) {
  const std::size_t n = arrivals.size();
  OpenLoopResult out;
  out.sentNs.assign(n, 0);
  out.recvNs.assign(n, 0);
  out.failure.assign(n, "no reply");
  out.tracedLines.resize(n);
  out.missResults.resize(n);

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Connection>(port));
  }
  std::vector<std::string> frames(n);
  for (std::size_t i = 0; i < n; ++i) frames[i] = arrivals[i].frame + '\n';

  std::atomic<bool> senderDone{false};
  out.startNs = nowNs() + 20'000'000;  // first due time 20 ms from now
  const auto start = Clock::time_point(std::chrono::nanoseconds(out.startNs));

  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::nanoseconds(static_cast<
                                   std::int64_t>(arrivals[i].dueMs * 1e6));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      out.sentNs[i] = nowNs();
      if (!conns[i % conns.size()]->sendAll(frames[i])) out.sentNs[i] = 0;
    }
    senderDone = true;
  });

  // Receiver: runs on this thread until every arrival is answered, or
  // the drain deadline after the last send passes.
  std::size_t answered = 0;
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
  std::vector<char> alive(conns.size(), 1);
  std::vector<std::string> lines;
  std::uint64_t drainDeadline = 0;
  while (answered < n) {
    if (drainDeadline == 0 && senderDone.load()) {
      drainDeadline = nowNs() + static_cast<std::uint64_t>(drainSeconds * 1e9);
    }
    if (drainDeadline != 0 && nowNs() > drainDeadline) break;
    if (std::none_of(alive.begin(), alive.end(), [](char a) { return a; })) {
      break;
    }
    if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (!alive[c] || (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      lines.clear();
      if (!conns[c]->readLines(lines)) {
        alive[c] = 0;
        fds[c].fd = -1;  // poll ignores negative descriptors
      }
      const std::uint64_t at = nowNs();
      for (const std::string& line : lines) {
        Reply reply;
        if (!scanReply(line, reply) || reply.id >= n ||
            out.recvNs[reply.id] != 0) {
          continue;  // unmatched; its arrival stays "no reply"
        }
        const Arrival& a = arrivals[reply.id];
        out.recvNs[reply.id] = at;
        out.failure[reply.id] = verdict(
            reply, a.kind,
            a.kind == Arrival::Kind::Hit
                ? &expected[static_cast<std::size_t>(a.key)]
                : nullptr);
        if (a.kind == Arrival::Kind::Miss) {
          out.missResults[reply.id] = std::string(reply.result);
        }
        if (line.find("\"trace\":{") != std::string::npos) {
          out.tracedLines[reply.id] = line;
        }
        ++answered;
      }
    }
  }
  sender.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (out.sentNs[i] == 0) out.failure[i] = "not sent";
  }
  return out;
}

SaturationResult runSaturation(int port, const std::vector<Request>& hot,
                               const std::vector<std::string>& expected,
                               std::uint64_t seed, int connections, int depth,
                               double seconds) {
  constexpr double kWindowSeconds = 0.25;
  constexpr std::size_t kKeyCycle = 4096;
  std::vector<FrameTemplate> templates;
  for (const Request& r : hot) templates.push_back(frameTemplate(r, false));
  const std::size_t windows =
      static_cast<std::size_t>(seconds / kWindowSeconds);

  struct PerConnection {
    std::size_t attempted = 0, completed = 0, failed = 0;
    std::vector<std::size_t> perWindow;
    std::string firstFailure;
  };
  std::vector<PerConnection> results(static_cast<std::size_t>(connections));
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));

  auto loop = [&](int c, PerConnection& r) {
    r.perWindow.assign(windows, 0);
    pviz::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<unsigned>(c));
    std::vector<std::size_t> keys(kKeyCycle);
    for (std::size_t& k : keys) k = rng.below(hot.size());
    Connection conn(port);
    std::this_thread::sleep_until(start);
    std::size_t next = 0, inFlight = 0;
    auto sendOne = [&] {
      const std::size_t id = next++;
      ++r.attempted;
      ++inFlight;
      if (!conn.sendAll(templates[keys[id % kKeyCycle]].with(id) + '\n')) {
        throw pviz::Error("saturation connection lost on send");
      }
    };
    for (int d = 0; d < depth; ++d) sendOne();
    std::vector<std::string> lines;
    while (inFlight > 0) {
      lines.clear();
      if (!conn.readLines(lines)) throw pviz::Error("saturation connection lost");
      const auto now = Clock::now();
      for (const std::string& line : lines) {
        --inFlight;
        Reply reply;
        std::string why = "malformed reply: " + line.substr(0, 200);
        if (scanReply(line, reply)) {
          why = verdict(reply, Arrival::Kind::Hit,
                        &expected[keys[reply.id % kKeyCycle]]);
        }
        if (why.empty()) {
          ++r.completed;
          const auto w = static_cast<std::size_t>(
              std::chrono::duration<double>(now - start).count() /
              kWindowSeconds);
          if (now >= start && w < windows) ++r.perWindow[w];
        } else {
          ++r.failed;
          if (r.firstFailure.empty()) r.firstFailure = why;
        }
        if (now < end) sendOne();
      }
    }
  };

  std::vector<std::thread> threads;
  std::vector<std::string> errors(results.size());
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PerConnection& r = results[static_cast<std::size_t>(c)];
      try {
        loop(c, r);
      } catch (const std::exception& e) {
        // Everything in flight on a lost connection failed.
        r.failed += r.attempted - r.completed - r.failed;
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SaturationResult out;
  std::vector<std::size_t> perWindow(windows, 0);
  for (std::size_t c = 0; c < results.size(); ++c) {
    const PerConnection& r = results[c];
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (out.firstFailure.empty()) {
      out.firstFailure = r.firstFailure;
      if (!errors[c].empty()) {
        out.firstFailure += (out.firstFailure.empty() ? "" : "; ") + errors[c];
      }
    }
    for (std::size_t w = 0; w < windows && w < r.perWindow.size(); ++w) {
      perWindow[w] += r.perWindow[w];
    }
  }
  // The first window is the connections' ramp; leave it out.
  for (std::size_t w = 1; w < windows; ++w) {
    out.windowRps.push_back(static_cast<double>(perWindow[w]) / kWindowSeconds);
  }
  return out;
}

}  // namespace perfbench
