// The PowerViz service server: a concurrent TCP front end over the
// ServiceEngine.
//
// Threading model
//   * one accept thread (poll with a short timeout, so shutdown needs
//     no signal tricks),
//   * one reader thread per connection (bounded by maxConnections;
//     finished readers are reaped on the next accept).  The reader
//     parses each frame once and answers what runs nothing itself:
//     parse errors, result-cache hits (the stored bytes spliced into
//     the reply envelope) and stats / metrics / events.  The replies to
//     one recv go out in one send,
//   * a fixed pool of request workers draining one bounded queue of
//     parsed requests: cache misses, ping, the fleet ops, trace_dump.
//
// Admission control and backpressure: a request that must run and
// arrives while the queue is full is answered immediately with an
// `overloaded` response instead of being buffered — queue depth, not
// client count, bounds the server's memory and its worst-case latency.
// Hits and the metric ops take no queue slot.  A connection past
// maxConnections gets a single `overloaded` line and is closed (shed).
//
// Robustness against misbehaving clients: the reader enforces a hard
// frame-size bound (one `error` reply, then the connection closes — the
// frame boundary is lost), an idle deadline, and a stalled-frame
// deadline that cuts off slow-loris writers; a reply write blocked
// longer than the frame deadline on a client that stopped reading cuts
// the connection (`timeouts` counter); the JSON parser refuses
// nesting deeper than maxJsonDepth; workers drop requests whose
// wall-clock budget expired while queued (`error` reply, `timeouts`
// counter) rather than doing stale work.  A request that was dispatched
// in time carries its remaining budget into the engine as a cancellation
// deadline: the kernel polls it at phase and chunk boundaries and stops
// mid-run when it expires (`error` reply, `cancelled` counter), leaving
// the result and characterization caches untouched.  All violations are
// counted in the `stats` payload (timeouts / cancelled / rejected_frames
// / shed_connections).
//
// Shutdown is drain-and-stop: stop() (the SIGINT path in
// powerviz_serve) stops accepting connections and reading new requests,
// lets the workers finish every queued request, writes those responses,
// then closes the sockets and joins all threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/engine.h"
#include "service/metrics.h"
#include "telemetry/trace_sink.h"

namespace pviz::service {

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< listen address (localhost only)
  int port = 0;                    ///< 0 = ephemeral, see Server::port()
  int workers = 4;                 ///< request worker threads
  std::size_t maxQueueDepth = 64;  ///< admission-control bound
  std::size_t maxConnections = 64;
  std::size_t maxFrameBytes = 1 << 20;  ///< request frame size bound
  std::size_t maxJsonDepth = 64;        ///< request JSON nesting bound

  // Deadlines, all in milliseconds; 0 disables the check.  Enforced by
  // the per-connection reader's poll loop (idle / stalled frame) and at
  // worker dequeue (request budget), with ~100 ms granularity, and by
  // every reply write (a send blocked past the frame deadline).  The
  // frame deadline is deliberately tight: a well-behaved localhost
  // client writes a full 1 MiB frame in well under a second, so a frame
  // still incomplete after 5 s is a slow-loris writer, not a slow link.
  int idleTimeoutMs = 300000;    ///< no bytes at all on the connection
  int frameTimeoutMs = 5000;     ///< a started frame that never finishes
                                 ///< (slow-loris writers), or a reply
                                 ///< write a client never makes room for
  int requestTimeoutMs = 0;      ///< queue-to-dispatch wall-clock budget

  /// Per-op p99 latency objectives in milliseconds (op token → target),
  /// e.g. {{"study", 250.0}}.  Ops listed here feed the SLO burn-rate
  /// gauges and the slow-request event log; unknown op tokens are
  /// rejected at construction.
  std::vector<std::pair<std::string, double>> sloP99Ms;

  /// Retained trace-buffer bound: spans of fleet-traced requests kept
  /// for the `trace_dump` op, oldest dropped first.
  std::size_t traceBufferSpans = 8192;

  EngineConfig engine;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  ///< stops (draining) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the threads; throws pviz::Error on failure.
  void start();

  /// The bound port (the ephemeral one when config.port was 0).
  int port() const { return boundPort_; }

  bool running() const { return started_ && !stopped_; }

  /// Drain and shut down: refuse new work, finish queued requests,
  /// write their responses, close sockets, join threads.  Idempotent.
  void stop();

  ServiceEngine& engine() { return engine_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  ServiceMetrics& metrics() { return metrics_; }

  /// The `stats` payload (metrics snapshot + cache counters).
  Json statsJson() const;

  /// The `metrics` payload: Prometheus text exposition of the registry.
  std::string prometheusText();

  /// Fleet identity assigned via the `register` op (empty when none).
  std::string workerId() const;

 private:
  struct Connection {
    explicit Connection(int fileDescriptor) : fd(fileDescriptor) {}
    ~Connection();
    const int fd;
    std::mutex writeMutex;
    std::atomic<bool> readerDone{false};
  };

  /// A request admitted to the queue: parsed, and for engine ops looked
  /// up in the result cache (a miss).  Fleet ops and trace_dump carry
  /// only the request.
  struct Task {
    std::shared_ptr<Connection> conn;
    ServiceEngine::Admission admission;
    std::chrono::steady_clock::time_point admitted;
  };

  /// What answering one request produced, before its reply is written.
  struct Answer {
    std::string status = "ok";  ///< "ok" | "error"
    std::string error;          ///< set when status != "ok"
    std::string result;         ///< the serialized payload when ok
    bool cached = false;
    bool cancelled = false;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> conn);
  void workerLoop();
  void reapReaders(bool joinAll);

  /// Admit one frame on its connection's reader: parse it, answer what
  /// runs nothing (parse errors, result-cache hits, stats, metrics,
  /// events) into `replies`, and queue the rest — or answer
  /// `overloaded` when the queue is full.
  void admit(const std::shared_ptr<Connection>& conn, const std::string& line,
             std::string& replies);
  /// False when the queue is full (the caller answers `overloaded`).
  bool tryEnqueue(Task task);
  /// `ctx` is the worker's long-lived execution context: its arena is
  /// reused across requests, its cancel token reset per request.
  void process(Task& task, util::ExecutionContext& ctx);
  /// Record one answered request in the metrics and append its reply
  /// line to `out`.  `ctx` is the worker's context the request ran on,
  /// or null for a request answered on its reader.
  void finish(const Request& request, const Answer& answer,
              std::chrono::steady_clock::time_point admitted,
              std::uint64_t startUs, util::ExecutionContext* ctx,
              std::string& out);
  /// The request/<op> span of a request that asked for `trace` or
  /// carries a fleet trace id: returned as the reply's Chrome trace
  /// (with the phases the run recorded on `ctx`) for the former,
  /// retained for `trace_dump` for the latter.
  Json traceRequest(const Request& request, const Answer& answer,
                    std::uint64_t startUs, util::ExecutionContext* ctx);
  /// register / heartbeat / claim — answered from server state, never
  /// dispatched to the engine.
  Json handleFleetOp(const Request& request);
  /// trace_dump: the retained fleet-trace buffer plus `now_us` for
  /// cross-process clock alignment.
  Json handleTraceDump(const Request& request);
  /// events: recent structured event-ring entries, oldest first.
  Json handleEvents(const Request& request);
  /// Send `bytes`, whole reply lines, under the connection's write
  /// lock, so lines from its reader and the workers never interleave.
  /// A send blocked past frameTimeoutMs shuts the connection down and
  /// drops the unsent bytes.
  void writeReplies(Connection& conn, const std::string& bytes);
  /// One `status` reply line (error/overloaded), newline included,
  /// echoing the request's id and op (none when `request` is null).
  std::string statusLine(const Request* request, const std::string& status,
                         const std::string& message, Json trace = {}) const;

  ServerConfig config_;
  ServiceEngine engine_;
  ServiceMetrics metrics_;

  int listenFd_ = -1;
  int boundPort_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> activeConnections_{0};

  std::thread acceptThread_;
  std::vector<std::thread> workers_;
  std::mutex readersMutex_;
  std::list<std::pair<std::thread, std::shared_ptr<Connection>>> readers_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<Task> queue_;

  /// Fleet identity, set by the coordinator's `register` op.
  mutable std::mutex workerIdMutex_;
  std::string workerId_;

  /// Trace-id generator for requests that carry no propagated context:
  /// one local id per processed request, stamped on the worker's
  /// ExecutionContext so phase spans correlate with the request-level
  /// span in the response's `trace` dump.  Requests with a coordinator-
  /// minted `trace_id` use that id instead.
  std::atomic<std::uint64_t> nextTraceId_{1};

  /// Retained spans of fleet-traced requests (nonzero trace_id), served
  /// by the `trace_dump` op.  Bounded by config.traceBufferSpans.
  /// Spans of cancelled requests are never retained: the coordinator
  /// re-dispatches the unit under the same trace id, so keeping the
  /// aborted fragment would leave orphan spans in the merged trace.
  telemetry::TraceSink traceBuffer_;
};

}  // namespace pviz::service
