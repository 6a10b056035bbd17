#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "telemetry/trace_sink.h"
#include "util/error.h"
#include "util/exec_context.h"
#include "util/log.h"
#include "util/thread_id.h"

namespace pviz::service {

namespace {

constexpr int kPollMillis = 100;  // shutdown-check cadence for all polls

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), engine_(config_.engine) {
  PVIZ_REQUIRE(config_.workers >= 1, "server needs at least one worker");
  PVIZ_REQUIRE(config_.maxQueueDepth >= 1, "queue depth must be >= 1");
  PVIZ_REQUIRE(config_.maxConnections >= 1, "connection bound must be >= 1");
  PVIZ_REQUIRE(config_.maxFrameBytes >= 64,
               "frame bound must fit at least a minimal request");
  PVIZ_REQUIRE(config_.maxJsonDepth >= 1, "JSON depth bound must be >= 1");
  PVIZ_REQUIRE(config_.idleTimeoutMs >= 0 && config_.frameTimeoutMs >= 0 &&
                   config_.requestTimeoutMs >= 0,
               "deadlines must be >= 0 (0 disables)");
  for (const auto& [opName, p99Ms] : config_.sloP99Ms) {
    parseOpToken(opName);  // reject unknown op tokens at boot
    PVIZ_REQUIRE(p99Ms > 0.0, "SLO p99 objective must be positive ms");
    metrics_.slo().setObjective(opName, p99Ms);
  }
  traceBuffer_.setCapacity(config_.traceBufferSpans);
  engine_.setEnergyAttributor(&metrics_.energy());
}

Server::~Server() { stop(); }

void Server::start() {
  PVIZ_REQUIRE(!started_, "server already started");

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PVIZ_REQUIRE(listenFd_ >= 0, "cannot create listen socket");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  PVIZ_REQUIRE(::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) == 1,
               "invalid listen address '" + config_.host + "'");
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot bind " + config_.host + ":" +
                std::to_string(config_.port) + ": " + why);
  }
  PVIZ_REQUIRE(::listen(listenFd_, 128) == 0, "listen failed");

  socklen_t addrLen = sizeof addr;
  PVIZ_REQUIRE(
      ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &addrLen) ==
          0,
      "getsockname failed");
  boundPort_ = ntohs(addr.sin_port);

  started_ = true;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  PVIZ_LOG_INFO("service listening on " << config_.host << ':' << boundPort_
                                        << " (" << config_.workers
                                        << " workers, queue "
                                        << config_.maxQueueDepth << ")");
}

void Server::stop() {
  if (!started_ || stopped_.exchange(true)) return;
  stopping_ = true;

  // 1. Stop taking new connections and new requests.
  if (acceptThread_.joinable()) acceptThread_.join();
  reapReaders(/*joinAll=*/true);

  // 2. Drain: workers finish every request already admitted and write
  //    the responses (connections are kept alive by the tasks' refs).
  queueCv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 3. Tear the listener down.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  PVIZ_LOG_INFO("service on port " << boundPort_ << " drained and stopped");
}

Json Server::statsJson() const {
  Json out = metrics_.statsJson(engine_.cache().stats());
  const std::string id = workerId();
  if (!id.empty()) out.set("worker", id);
  return out;
}

std::string Server::prometheusText() {
  return metrics_.prometheusText(engine_.cache().stats());
}

std::string Server::workerId() const {
  std::lock_guard lock(workerIdMutex_);
  return workerId_;
}

Json Server::handleFleetOp(const Request& request) {
  Json out = Json::object();
  switch (request.op) {
    case Op::Register: {
      if (!request.worker.empty()) {
        std::lock_guard lock(workerIdMutex_);
        workerId_ = request.worker;
      }
      metrics_.events().emit(telemetry::EventKind::Lifecycle, "register",
                             "assigned fleet identity " + workerId());
      out.set("worker", workerId());
      out.set("pid", static_cast<double>(::getpid()));
      out.set("workers", config_.workers);
      out.set("max_queue_depth", static_cast<double>(config_.maxQueueDepth));
      return out;
    }
    case Op::Heartbeat: {
      std::size_t depth = 0;
      {
        std::lock_guard lock(queueMutex_);
        depth = queue_.size();
      }
      out.set("worker", workerId());
      out.set("seq", request.seq);
      out.set("queue_depth", static_cast<double>(depth));
      out.set("connections_active",
              static_cast<double>(activeConnections_.load()));
      out.set("uptime_ms", metrics_.value(ServiceMetrics::kUptimeMs));
      out.set("total_requests",
              metrics_.value(ServiceMetrics::kTotalRequests));
      // The worker's steady-clock reading lets the coordinator estimate
      // this process's clock offset from the beat's RTT midpoint.
      out.set("now_us", static_cast<double>(telemetry::traceNowUs()));
      return out;
    }
    case Op::Claim: {
      // Admission handshake: grant while the queue has room right now.
      // The grant is advisory (no reservation is held) — it tells the
      // coordinator this worker would accept the unit if sent
      // immediately, so an overloaded worker is skipped instead of
      // queueing a deep backlog behind it.
      std::size_t depth = 0;
      {
        std::lock_guard lock(queueMutex_);
        depth = queue_.size();
      }
      const bool granted = !stopping_ && depth < config_.maxQueueDepth;
      metrics_.count(granted ? ServiceMetrics::kClaimsGranted
                             : ServiceMetrics::kClaimsDeclined);
      out.set("granted", granted);
      out.set("queue_depth", static_cast<double>(depth));
      out.set("worker", workerId());
      return out;
    }
    default:
      break;
  }
  throw Error("not a fleet op");
}

Json Server::handleTraceDump(const Request& request) {
  Json spans = Json::array();
  std::size_t count = 0;
  for (const telemetry::TraceSpan& span : traceBuffer_.spans()) {
    spans.push(traceSpanToJson(span));
    ++count;
  }
  Json out = Json::object();
  out.set("worker", workerId());
  out.set("pid", static_cast<double>(::getpid()));
  // The dumping process's steady-clock reading: a collector can sanity-
  // check its heartbeat-derived offset estimate against the dump.
  out.set("now_us", static_cast<double>(telemetry::traceNowUs()));
  out.set("count", static_cast<double>(count));
  out.set("dropped", static_cast<double>(traceBuffer_.dropped()));
  out.set("spans", std::move(spans));
  if (request.clearTrace) traceBuffer_.clear();
  return out;
}

Json Server::handleEvents(const Request& request) {
  const std::size_t limit =
      request.eventsLimit > 0 ? static_cast<std::size_t>(request.eventsLimit)
                              : std::size_t{256};
  Json events = Json::array();
  std::size_t count = 0;
  for (const telemetry::Event& event : metrics_.events().recent(limit)) {
    Json e = Json::object();
    e.set("seq", static_cast<double>(event.seq));
    e.set("time_us", static_cast<double>(event.timeUs));
    e.set("kind", telemetry::eventKindToken(event.kind));
    if (event.op[0] != '\0') e.set("op", event.op);
    if (event.detail[0] != '\0') e.set("detail", event.detail);
    if (event.value != 0.0) e.set("value", event.value);
    events.push(std::move(e));
    ++count;
  }
  Json out = Json::object();
  out.set("worker", workerId());
  out.set("count", static_cast<double>(count));
  out.set("emitted", static_cast<double>(metrics_.events().totalEmitted()));
  out.set("capacity", static_cast<double>(metrics_.events().capacity()));
  out.set("events", std::move(events));
  return out;
}

void Server::acceptLoop() {
  while (!stopping_) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) {
      reapReaders(/*joinAll=*/false);
      continue;
    }
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;

    auto conn = std::make_shared<Connection>(fd);
    if (activeConnections_.load() >= config_.maxConnections) {
      // Accept-time shedding: one overloaded line, then the Connection
      // destructor closes the socket.
      metrics_.count(ServiceMetrics::kShedConnections);
      writeReplies(*conn, statusLine(nullptr, "overloaded",
                                     "connection limit reached, retry later"));
      continue;
    }

    activeConnections_.fetch_add(1);
    metrics_.connectionOpened();
    std::lock_guard lock(readersMutex_);
    readers_.emplace_back(
        std::thread([this, conn] { readerLoop(conn); }), conn);
  }
}

void Server::reapReaders(bool joinAll) {
  std::lock_guard lock(readersMutex_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (joinAll || it->second->readerDone.load()) {
      it->first.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::readerLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  std::string replies;  // everything answered from one recv, sent at once
  char chunk[16384];

  // Deadline bookkeeping: lastByteAt tracks any received byte (idle
  // deadline); frameStartedAt is set while a partial frame sits in the
  // buffer (stalled-frame deadline — a slow-loris writer keeps the
  // connection "busy" without ever completing a frame, so idleness
  // alone cannot catch it).  Both are stamped after the recv, never
  // with a time read before the poll that may have waited for it.
  auto lastByteAt = std::chrono::steady_clock::now();
  auto frameStartedAt = lastByteAt;

  while (!stopping_) {
    if (config_.idleTimeoutMs > 0 && buffer.empty() &&
        millisSince(lastByteAt) > config_.idleTimeoutMs) {
      metrics_.count(ServiceMetrics::kTimeouts);
      writeReplies(*conn, statusLine(nullptr, "error",
                                     "idle timeout: no request within " +
                                         std::to_string(config_.idleTimeoutMs) +
                                         " ms"));
      break;
    }
    if (config_.frameTimeoutMs > 0 && !buffer.empty() &&
        millisSince(frameStartedAt) > config_.frameTimeoutMs) {
      metrics_.count(ServiceMetrics::kTimeouts);
      writeReplies(*conn,
                   statusLine(nullptr, "error",
                              "frame timeout: frame not completed within " +
                                  std::to_string(config_.frameTimeoutMs) +
                                  " ms"));
      break;
    }

    pollfd pfd{conn->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;

    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF or error: the client is gone
    const auto now = std::chrono::steady_clock::now();
    if (buffer.empty()) frameStartedAt = now;
    lastByteAt = now;
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t lineStart = 0;
    for (std::size_t nl = buffer.find('\n', lineStart);
         nl != std::string::npos; nl = buffer.find('\n', lineStart)) {
      std::string line = buffer.substr(lineStart, nl - lineStart);
      lineStart = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      if (line.size() > config_.maxFrameBytes) {
        // A complete frame over the bound still has a clean boundary,
        // so reject just the frame and keep the connection.
        metrics_.count(ServiceMetrics::kRejectedFrames);
        replies += statusLine(nullptr, "error",
                              "frame exceeds " +
                                  std::to_string(config_.maxFrameBytes) +
                                  " bytes");
        continue;
      }
      admit(conn, line, replies);
    }
    buffer.erase(0, lineStart);

    const bool overBound = buffer.size() > config_.maxFrameBytes;
    if (overBound) {
      // A partial frame already over the bound: the only way to regain
      // framing would be to buffer without limit, so reply and drop the
      // connection — this is what bounds per-connection memory.
      PVIZ_LOG_WARN("dropping connection: frame exceeds "
                    << config_.maxFrameBytes << " bytes");
      metrics_.count(ServiceMetrics::kRejectedFrames);
      replies += statusLine(nullptr, "error",
                            "frame exceeds " +
                                std::to_string(config_.maxFrameBytes) +
                                " bytes");
    }
    if (!replies.empty()) {
      writeReplies(*conn, replies);
      replies.clear();
    }
    if (overBound) break;
  }

  metrics_.connectionClosed();
  activeConnections_.fetch_sub(1);
  conn->readerDone = true;
}

void Server::admit(const std::shared_ptr<Connection>& conn,
                   const std::string& line, std::string& replies) {
  const auto admitted = std::chrono::steady_clock::now();
  Request request;
  try {
    request = requestFromJson(Json::parse(line, config_.maxJsonDepth));
  } catch (const std::exception& e) {
    // The frame itself did not parse to a request.
    metrics_.count(ServiceMetrics::kBadRequests);
    replies += statusLine(nullptr, "error", e.what());
    return;
  }

  // Ops that run nothing are answered here, in admission order, without
  // a queue slot; everything that runs goes to the workers.
  const std::uint64_t startUs = telemetry::traceNowUs();
  ServiceEngine::Admission admission;
  bool runs = false;
  Answer answer;
  try {
    switch (request.op) {
      case Op::Stats:
        answer.result = statsJson().dump();
        break;
      case Op::Metrics: {
        Json result = Json::object();
        result.set("exposition", prometheusText());
        answer.result = result.dump();
        break;
      }
      case Op::Events:
        answer.result = handleEvents(request).dump();
        break;
      case Op::Register:
      case Op::Heartbeat:
      case Op::Claim:
      case Op::TraceDump:
        admission.request = request;
        runs = true;
        break;
      default:
        admission = engine_.admit(request);
        runs = !admission.hit;
        if (admission.hit) {
          // A hit runs nothing and credits no energy: its stored bytes
          // are the reply's result.
          answer.result = std::move(*admission.hit);
          answer.cached = true;
        }
    }
  } catch (const std::exception& e) {
    answer.status = "error";
    answer.error = e.what();
  }
  if (runs) {
    if (!tryEnqueue(Task{conn, std::move(admission), admitted})) {
      // Backpressure: answer now instead of buffering unboundedly.
      metrics_.count(ServiceMetrics::kOverloaded);
      replies += statusLine(&request, "overloaded",
                            "request queue is full, retry later");
    }
    return;
  }
  finish(request, answer, admitted, startUs, nullptr, replies);
}

bool Server::tryEnqueue(Task task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(queueMutex_);
    if (queue_.size() >= config_.maxQueueDepth) return false;
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  metrics_.recordQueueDepth(depth);
  queueCv_.notify_one();
  return true;
}

void Server::workerLoop() {
  // One long-lived context per worker: the scratch arena warms up over
  // the worker's lifetime and is reused across requests; the cancel
  // token is reset and re-armed per request in process().
  util::ExecutionContext ctx;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(queueMutex_);
      queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics_.recordQueueDepth(queue_.size());
    }
    process(task, ctx);
  }
}

void Server::process(Task& task, util::ExecutionContext& ctx) {
  const Request& request = task.admission.request;
  // Request budget, checked at dispatch: a request that sat in the queue
  // past its budget gets an `error` reply instead of stale work — under
  // overload this sheds exactly the requests whose clients have likely
  // given up waiting.
  if (config_.requestTimeoutMs > 0 &&
      millisSince(task.admitted) > config_.requestTimeoutMs) {
    metrics_.count(ServiceMetrics::kTimeouts);
    writeReplies(*task.conn,
                 statusLine(&request, "error",
                            "deadline exceeded: request queued longer than " +
                                std::to_string(config_.requestTimeoutMs) +
                                " ms"));
    return;
  }

  // A request dispatched in time carries its remaining budget into the
  // engine: the kernel polls the deadline at phase and chunk boundaries
  // and aborts mid-run if it expires (the `cancelled` counter).
  ctx.beginRun();
  ctx.cancel().reset();
  if (config_.requestTimeoutMs > 0) {
    ctx.cancel().setDeadline(
        task.admitted + std::chrono::milliseconds(config_.requestTimeoutMs));
  }

  const std::uint64_t startUs = telemetry::traceNowUs();
  // Trace-context propagation: a request carrying a coordinator-minted
  // trace_id keeps it (every span of this request tags with the fleet
  // id); otherwise mint a local one.
  ctx.setTraceId(request.traceId != 0
                     ? request.traceId
                     : nextTraceId_.fetch_add(1, std::memory_order_relaxed));
  Answer answer;
  try {
    if (request.op == Op::Register || request.op == Op::Heartbeat ||
        request.op == Op::Claim) {
      answer.result = handleFleetOp(request).dump();
    } else if (request.op == Op::TraceDump) {
      answer.result = handleTraceDump(request).dump();
    } else {
      // Engine-bound op (a cache miss or a ping): bracket it for energy
      // attribution — study runs executed inside credit their joules to
      // this request's trace id.
      metrics_.energy().beginRequest(ctx.traceId(), opToken(request.op));
      try {
        answer.result = engine_.compute(ctx, task.admission);
      } catch (...) {
        metrics_.energy().endRequest(ctx.traceId());
        throw;
      }
      metrics_.energy().endRequest(ctx.traceId());
    }
  } catch (const util::CancelledError& e) {
    answer.cancelled = true;
    answer.status = "error";
    answer.error = e.what();
  } catch (const std::exception& e) {
    answer.status = "error";
    answer.error = e.what();
  }
  std::string reply;
  finish(request, answer, task.admitted, startUs, &ctx, reply);
  writeReplies(*task.conn, reply);
}

void Server::finish(const Request& request, const Answer& answer,
                    std::chrono::steady_clock::time_point admitted,
                    std::uint64_t startUs, util::ExecutionContext* ctx,
                    std::string& out) {
  const bool ok = answer.status == "ok";
  const double elapsedMs = millisSince(admitted);
  metrics_.recordRequest(request.op, elapsedMs, answer.cached, !ok);
  if (answer.cancelled) metrics_.count(ServiceMetrics::kCancelled);

  Json trace;
  if (request.trace || request.traceId != 0) {
    trace = traceRequest(request, answer, startUs, ctx);
  }
  if (ok) {
    appendOkReply(out, request.id, request.op, answer.cached, elapsedMs,
                  answer.result, trace);
    out += '\n';
  } else {
    out += statusLine(&request, answer.status, answer.error, std::move(trace));
  }
}

Json Server::traceRequest(const Request& request, const Answer& answer,
                          std::uint64_t startUs, util::ExecutionContext* ctx) {
  // A request answered on its reader has no context; it still needs an
  // id for its span, the propagated one or a local one.
  std::uint64_t traceId = request.traceId;
  if (ctx != nullptr) {
    traceId = ctx->traceId();
  } else if (traceId == 0) {
    traceId = nextTraceId_.fetch_add(1, std::memory_order_relaxed);
  }
  // Request-level span wrapping the whole dispatch; the propagated
  // parent_span (the coordinator's dispatch span) keeps the causal edge
  // across the process boundary in a merged trace.
  telemetry::TraceSpan span;
  span.name = std::string("request/") + opToken(request.op);
  span.category = "service";
  span.traceId = traceId;
  span.parentSpan = request.parentSpan;
  span.threadId = util::threadIndex();
  span.startUs = startUs;
  span.durationUs = telemetry::traceNowUs() - startUs;
  span.args.emplace_back("op", opToken(request.op));
  span.args.emplace_back("status", answer.status);
  span.args.emplace_back("cache_hit", answer.cached ? "true" : "false");
  if (answer.cancelled) span.args.emplace_back("cancelled", "true");
  const std::string id = workerId();
  if (!id.empty()) span.args.emplace_back("worker", id);

  Json trace;
  if (request.trace) {
    // In-band span dump for this request: every kernel phase the run
    // recorded (none survive from earlier requests — beginRun cleared
    // the tracer, so a cancelled run leaves no orphan spans either) plus
    // the request-level span.
    telemetry::TraceSink sink;
    if (ctx != nullptr) sink.addPhases(ctx->tracer(), traceId);
    sink.add(span);
    trace = Json::parse(sink.toChromeJson());
  }
  if (request.traceId != 0 && !answer.cancelled) {
    // Retain for `trace_dump`.  Cancelled fleet requests retain nothing:
    // the coordinator re-dispatches the unit under the same trace id,
    // and the completed attempt must be the only one in the merged
    // trace (no orphan spans).
    if (ctx != nullptr) traceBuffer_.addPhases(ctx->tracer(), traceId);
    traceBuffer_.add(std::move(span));
  }
  return trace;
}

void Server::writeReplies(Connection& conn, const std::string& bytes) {
  std::lock_guard lock(conn.writeMutex);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(conn.fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      return;  // client gone; drop the replies
    }
    // The socket buffer is full: wait for room, but no longer than the
    // frame deadline.  A client that stopped reading would otherwise
    // hold this thread in send() for as long as it keeps the socket
    // open, and stop() joins this thread.
    pollfd pfd{conn.fd, POLLOUT, 0};
    const int ready = ::poll(
        &pfd, 1, config_.frameTimeoutMs > 0 ? config_.frameTimeoutMs : -1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      // Cut the connection: its reader's recv sees EOF and every later
      // write to it fails at once, so the timeout is counted once.
      metrics_.count(ServiceMetrics::kTimeouts);
      ::shutdown(conn.fd, SHUT_RDWR);
      return;
    }
    if (ready < 0) return;
  }
}

std::string Server::statusLine(const Request* request,
                               const std::string& status,
                               const std::string& message, Json trace) const {
  Response response;
  response.status = status;
  response.error = message;
  response.trace = std::move(trace);
  if (request != nullptr) {
    // The id echo lets the client correlate the rejection.
    response.id = request->id;
    response.op = request->op;
  }
  return toJson(response).dump() + '\n';
}

}  // namespace pviz::service
