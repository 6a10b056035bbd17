// Execution-backend abstraction behind the worklet dispatch.
//
// The parallel primitives in util/parallel.h used to hand every chunked
// loop straight to the ExecutionContext's ThreadPool.  That wired the
// *dispatch policy* (who runs the chunks) and the *kernel inner loop*
// (how one chunk is computed) together, which made it impossible to run
// the same algorithm on several execution strategies side by side — the
// evaluation methodology of Bethel et al.'s traditional-vs-data-parallel
// primitive study, and VTK-m's DeviceAdapterAlgorithm split.
//
// A Backend is a stateless dispatch policy:
//
//   serial      every chunk runs in order on the calling thread.  The
//               reference backend: determinism suites compare the
//               threaded backend's output against it byte for byte.
//   threaded    chunks are handed to the context's ThreadPool (the
//               pre-backend behavior, and the default).
//
// The backend chooses only who runs a chunk, never how a chunk is
// computed: every kernel has exactly one inner loop, so outputs are
// bit-identical on both backends by construction.
//
// Backends are immutable singletons — selection is a pointer swap on the
// ExecutionContext, never an allocation.  Selection precedence, highest
// first:
//
//   1. per-request: the service protocol's `backend` field,
//   2. per-process: `--backend` on the tools / EngineConfig::backend,
//   3. environment: POWERVIZ_BACKEND=serial|threaded,
//   4. built-in default: threaded.
#pragma once

#include <cstdint>
#include <string>

namespace pviz::util {
class ThreadPool;
}  // namespace pviz::util

namespace pviz::exec {

enum class BackendKind { Serial, Threaded };

/// Wire/CLI token for a backend kind ("serial", "threaded").
const char* backendToken(BackendKind kind);
/// Parse a token; throws pviz::Error naming the valid tokens.
BackendKind parseBackendToken(const std::string& token);

/// How one chunked loop is executed.  Implementations are stateless and
/// shared; all virtual calls are const and thread-safe.
class Backend {
 public:
  /// Type-erased chunk body, mirroring ThreadPool's invoker thunk: no
  /// std::function allocation on the dispatch path.
  using ChunkFn = void (*)(void* env, std::int64_t begin, std::int64_t end);

  virtual ~Backend() = default;

  virtual BackendKind kind() const noexcept = 0;

  /// Run `body(env, chunkBegin, chunkEnd)` over [begin, end) in chunks
  /// of at most `grain` iterations and block until all complete.  The
  /// body polls for cancellation (the parallel primitives poll at every
  /// chunk edge).
  virtual void forChunks(util::ThreadPool& pool, std::int64_t begin,
                         std::int64_t end, std::int64_t grain, void* env,
                         ChunkFn body) const = 0;

  /// Number of threads a loop effectively runs at under this backend on
  /// `pool` (1 for serial).  The scan/select primitives use it to pick
  /// their single-sweep path exactly when execution is single-threaded.
  virtual unsigned concurrency(const util::ThreadPool& pool) const noexcept = 0;

  const char* token() const noexcept { return backendToken(kind()); }
};

/// The shared singleton for each kind.
const Backend& serialBackend() noexcept;
const Backend& threadedBackend() noexcept;
const Backend& backendFor(BackendKind kind) noexcept;

/// The process default: POWERVIZ_BACKEND when set (a bad value falls
/// back to threaded with a warning, so a typo cannot change results or
/// crash a service at boot), else threaded.  Read once and cached.
BackendKind defaultBackendKind() noexcept;
const Backend& defaultBackend() noexcept;

}  // namespace pviz::exec
