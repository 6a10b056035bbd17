#include "util/backend.h"

#include <cstdlib>

#include "util/error.h"
#include "util/exec_context.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace pviz::exec {

namespace {

/// Chunks run in order on the calling thread; the pool is never touched,
/// so a serial run inside a pool worker (nested dispatch) is safe.
class SerialBackend final : public Backend {
 public:
  BackendKind kind() const noexcept override { return BackendKind::Serial; }

  void forChunks(util::ThreadPool&, std::int64_t begin, std::int64_t end,
                 std::int64_t grain, void* env, ChunkFn body) const override {
    PVIZ_REQUIRE(grain > 0, "backend chunk grain must be positive");
    for (std::int64_t b = begin; b < end; b += grain) {
      body(env, b, b + grain < end ? b + grain : end);
    }
  }

  unsigned concurrency(const util::ThreadPool&) const noexcept override {
    return 1;
  }
};

/// Chunks are handed out from the pool's atomic cursor — the
/// pre-backend dispatch.
class ThreadedBackend final : public Backend {
 public:
  BackendKind kind() const noexcept override { return BackendKind::Threaded; }

  void forChunks(util::ThreadPool& pool, std::int64_t begin,
                 std::int64_t end, std::int64_t grain, void* env,
                 ChunkFn body) const override {
    pool.parallelFor(begin, end, grain,
                     [env, body](std::int64_t b, std::int64_t e) {
                       body(env, b, e);
                     });
  }

  unsigned concurrency(const util::ThreadPool& pool) const noexcept override {
    return pool.concurrency();
  }
};

BackendKind readEnvDefault() {
  const char* env = std::getenv("POWERVIZ_BACKEND");
  if (env == nullptr || *env == '\0') return BackendKind::Threaded;
  try {
    return parseBackendToken(env);
  } catch (const Error& e) {
    PVIZ_LOG_WARN("ignoring POWERVIZ_BACKEND: " << e.what());
    return BackendKind::Threaded;
  }
}

}  // namespace

const char* backendToken(BackendKind kind) {
  switch (kind) {
    case BackendKind::Serial: return "serial";
    case BackendKind::Threaded: return "threaded";
  }
  return "?";
}

BackendKind parseBackendToken(const std::string& token) {
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    if (token == backendToken(kind)) return kind;
  }
  throw Error("unknown backend '" + token +
              "' (expected serial threaded)");
}

const Backend& serialBackend() noexcept {
  static const SerialBackend backend;
  return backend;
}

const Backend& threadedBackend() noexcept {
  static const ThreadedBackend backend;
  return backend;
}

const Backend& backendFor(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::Serial: return serialBackend();
    case BackendKind::Threaded: return threadedBackend();
  }
  return threadedBackend();
}

BackendKind defaultBackendKind() noexcept {
  static const BackendKind kind = readEnvDefault();
  return kind;
}

const Backend& defaultBackend() noexcept {
  return backendFor(defaultBackendKind());
}

}  // namespace pviz::exec
