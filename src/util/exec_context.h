// Explicit execution environment threaded through every kernel layer.
//
// Instead of each filter reaching into the ThreadPool::global() singleton
// and allocating fresh scratch arrays per run, callers build one
// ExecutionContext per sweep (or per service request) and hand it down
// the stack — the in-situ infrastructure pattern of SENSEI/Ascent, where
// the execution environment is an object, not ambient process state.
// The context bundles:
//
//   * ThreadPool&    — the pool the run's loops execute on
//   * ScratchArena   — kernel-lifetime scratch blocks.  Blocks of at
//                      least kPagePoolFloor come from the process-wide
//                      PagePool (util/page_pool.h), which also backs
//                      util::Buffer, so pages one run faulted in serve
//                      the next run on any context; smaller ones come
//                      from malloc.  The arena itself keeps no blocks.
//   * CancelToken    — deadline + cooperative flag, polled at phase and
//                      chunk boundaries; trips the run with CancelledError
//   * PhaseTracer    — per-phase wall time, arena occupancy, and pool
//                      width, emitted as JSON next to the WorkProfile
//
// A context is externally synchronized: one kernel run uses it at a time
// (the service layer keeps one context per request worker).  The arena
// is internally locked because pool workers acquire and release blocks
// concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/thread_id.h"
#include "util/thread_pool.h"

namespace pviz::exec {
// See util/backend.h.  Forward-declared so exec_context.h stays the
// bottom of the include graph.
class Backend;
const Backend& defaultBackend() noexcept;
}  // namespace pviz::exec

namespace pviz::util {

/// Thrown by CancelToken::throwIfCancelled() when a run is cancelled or
/// its deadline expires.  Distinct from plain pviz::Error so the service
/// layer can count cancellations separately from genuine failures.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Cooperative cancellation: an explicit flag plus an optional absolute
/// deadline, polled by the parallel primitives at chunk boundaries and by
/// ExecutionContext::phase() at phase boundaries.  All operations are
/// lock-free; poll() costs one relaxed load on the fast path.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Request cancellation; the next poll throws.
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }

  /// Cancel the run once `Clock::now()` reaches `deadline`.
  void setDeadline(Clock::time_point deadline) noexcept {
    deadlineTicks_.store(deadline.time_since_epoch().count(),
                         std::memory_order_relaxed);
  }

  /// Convenience: deadline `budgetMs` milliseconds from `start`.
  void setBudgetMs(double budgetMs,
                   Clock::time_point start = Clock::now()) noexcept {
    setDeadline(start + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(budgetMs * 1e6)));
  }

  /// Test hook: trip the token on the (n+1)-th poll from now (n = 0
  /// cancels on the very next poll).  Lets tests cancel deterministically
  /// at every successive phase/chunk boundary of a kernel.
  void cancelAfterPolls(std::int64_t n) noexcept {
    pollsUntilCancel_.store(n, std::memory_order_relaxed);
  }

  /// Clear flag, deadline, and poll countdown for the next run.
  void reset() noexcept {
    flag_.store(false, std::memory_order_relaxed);
    deadlineTicks_.store(kNoDeadline, std::memory_order_relaxed);
    pollsUntilCancel_.store(kNoCountdown, std::memory_order_relaxed);
    deadlineExpired_.store(false, std::memory_order_relaxed);
  }

  /// True once cancellation is due (explicit, countdown, or deadline).
  bool poll() noexcept {
    if (pollsUntilCancel_.load(std::memory_order_relaxed) != kNoCountdown &&
        pollsUntilCancel_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      flag_.store(true, std::memory_order_relaxed);
    }
    if (flag_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline =
        deadlineTicks_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadline &&
        Clock::now().time_since_epoch().count() >= deadline) {
      deadlineExpired_.store(true, std::memory_order_relaxed);
      flag_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Poll and throw CancelledError if cancellation is due.
  void throwIfCancelled() {
    if (!poll()) return;
    throw CancelledError(deadlineExpired_.load(std::memory_order_relaxed)
                             ? "run cancelled: deadline exceeded"
                             : "run cancelled: cancellation requested");
  }

  /// True if a cancellation request (not necessarily polled yet) exists.
  bool cancelRequested() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  static constexpr std::int64_t kNoCountdown =
      std::numeric_limits<std::int64_t>::min();

  std::atomic<bool> flag_{false};
  std::atomic<bool> deadlineExpired_{false};
  std::atomic<std::int64_t> deadlineTicks_{kNoDeadline};
  std::atomic<std::int64_t> pollsUntilCancel_{kNoCountdown};
};

/// Scratch allocator for kernel-lifetime buffers.
///
/// Blocks of at least kPagePoolFloor bytes come from PagePool::global():
/// release() hands them back to that one process-wide pool, so repeat
/// runs reuse warm pages whichever context or thread asks next.  Smaller
/// blocks come from operator new.  Blocks are UNINITIALIZED on acquire —
/// every caller must write each element before reading it (the kernels'
/// classify passes already do).  Thread-safe: pool workers may acquire
/// and release concurrently.
class ScratchArena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;       ///< total acquire() calls
    std::uint64_t reuseHits = 0;      ///< acquires served by retained pages
    std::size_t bytesInUse = 0;       ///< currently checked out
    std::size_t peakBytesInUse = 0;   ///< high-water mark of bytesInUse
    std::size_t bytesPooled = 0;      ///< retained by the page pool
    std::size_t blocksPooled = 0;     ///< ranges retained by the page pool
  };

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Check out an uninitialized block of at least `bytes` bytes
  /// (nullptr for bytes == 0).  Alignment is at least the default
  /// operator-new alignment, sufficient for every trivially copyable
  /// kernel type.
  void* acquire(std::size_t bytes);

  /// Give a block back.  No-op for nullptr.
  void release(void* block) noexcept;

  /// Unmap the page pool's retained ranges.  Live blocks are unaffected.
  void trim() noexcept;

  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<const void*, std::size_t> live_;  // block -> bytes
  std::uint64_t acquires_ = 0;
  std::uint64_t reuseHits_ = 0;
  std::size_t bytesInUse_ = 0;
  std::size_t peakBytesInUse_ = 0;
};

/// RAII typed view over an arena block: the kernels' replacement for
/// std::vector scratch arrays.  Restricted to trivially copyable,
/// trivially destructible element types; contents are UNINITIALIZED on
/// construction (use fill() where the old vector relied on zero-init).
template <typename T>
class ScratchVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ScratchVector elements must be trivially copyable");
  static_assert(std::is_trivially_destructible_v<T>,
                "ScratchVector elements must be trivially destructible");

 public:
  ScratchVector() = default;
  ScratchVector(ScratchArena& arena, std::size_t count) {
    acquire(arena, count);
  }
  ~ScratchVector() { release(); }

  ScratchVector(const ScratchVector&) = delete;
  ScratchVector& operator=(const ScratchVector&) = delete;

  ScratchVector(ScratchVector&& other) noexcept
      : arena_(other.arena_), data_(other.data_), size_(other.size_) {
    other.arena_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  ScratchVector& operator=(ScratchVector&& other) noexcept {
    if (this != &other) {
      release();
      arena_ = other.arena_;
      data_ = other.data_;
      size_ = other.size_;
      other.arena_ = nullptr;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  void acquire(ScratchArena& arena, std::size_t count) {
    release();
    arena_ = &arena;
    size_ = count;
    data_ = count == 0
                ? nullptr
                : static_cast<T*>(arena.acquire(count * sizeof(T)));
  }

  void release() noexcept {
    if (arena_ != nullptr && data_ != nullptr) arena_->release(data_);
    arena_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  void fill(const T& value) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  ScratchArena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Records one entry per completed kernel phase: wall time plus arena and
/// pool occupancy at phase exit.  Not thread-safe — one run records at a
/// time (phases never nest across threads).
class PhaseTracer {
 public:
  struct Phase {
    std::string name;
    double millis = 0.0;
    std::uint64_t startUs = 0;         ///< steady-clock µs at phase start
    std::uint32_t threadId = 0;        ///< threadIndex() of the recorder
    std::size_t arenaBytesInUse = 0;   ///< checked-out bytes at phase end
    std::size_t arenaBytesPooled = 0;  ///< page-pool bytes retained at end
    unsigned poolConcurrency = 0;      ///< pool width the phase ran at
    bool cancelled = false;  ///< phase exited by cancellation unwind
  };

  void record(Phase phase) { phases_.push_back(std::move(phase)); }
  const std::vector<Phase>& phases() const { return phases_; }
  void clear() { phases_.clear(); }

  /// {"total_ms": ..., "phases": [{"name": ..., "ms": ..., ...}, ...]}
  std::string toJson() const;

 private:
  std::vector<Phase> phases_;
};

/// The execution environment handed down the stack.  See file comment.
class ExecutionContext {
 public:
  /// A context over the process-global pool.  This constructor is the
  /// one production use of ThreadPool::global() outside thread_pool.cpp:
  /// callers at the edge (tools, the service, benches, tests) build one
  /// and hand it down; kernels, the dataset and the hydro proxy never
  /// build their own.
  ExecutionContext() : pool_(&ThreadPool::global()) {}

  /// A context over an explicitly owned pool (tests, service workers).
  explicit ExecutionContext(ThreadPool& pool) : pool_(&pool) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  ThreadPool& pool() noexcept { return *pool_; }
  ScratchArena& arena() noexcept { return arena_; }
  CancelToken& cancel() noexcept { return cancel_; }
  PhaseTracer& tracer() noexcept { return tracer_; }

  /// The execution backend this context's loops dispatch through.
  /// Defaults to exec::defaultBackend() (POWERVIZ_BACKEND or threaded);
  /// the service engine re-points it per request.  Backends are shared
  /// immutable singletons, so switching is just a pointer store — but
  /// like the rest of the context it is externally synchronized: set it
  /// between runs, not while a kernel is in flight.
  const exec::Backend& backend() const noexcept { return *backend_; }
  void setBackend(const exec::Backend& backend) noexcept {
    backend_ = &backend;
  }

  /// Worker parallelism the backend will actually use on this context's
  /// pool (1 for the serial backend).  Kernels sizing partitions must
  /// ask this, never the pool directly — the backend is the authority.
  unsigned concurrency() const noexcept;

  /// Poll the cancel token; throws CancelledError when due.
  void checkCancelled() { cancel_.throwIfCancelled(); }

  /// Correlation id stamped on telemetry spans recorded under this
  /// context (one id per service request; 0 = untraced).
  void setTraceId(std::uint64_t id) noexcept { traceId_ = id; }
  std::uint64_t traceId() const noexcept { return traceId_; }

  /// Start a new run on this context: clears the phase trace.  Pooled
  /// pages are deliberately kept — reuse across runs is the point.
  void beginRun() { tracer_.clear(); }

  /// RAII phase marker.  Construction polls the cancel token (the phase
  /// boundary is a guaranteed cancellation point); destruction records
  /// wall time and arena/pool occupancy into the tracer.
  class PhaseScope {
   public:
    PhaseScope(ExecutionContext& ctx, std::string name)
        : ctx_(ctx),
          name_(std::move(name)),
          uncaught_(std::uncaught_exceptions()),
          start_(CancelToken::Clock::now()) {
      ctx_.cancel().throwIfCancelled();
    }

    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

    ~PhaseScope() {
      const auto elapsed = CancelToken::Clock::now() - start_;
      PhaseTracer::Phase phase;
      phase.name = std::move(name_);
      phase.millis =
          std::chrono::duration<double, std::milli>(elapsed).count();
      phase.startUs = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              start_.time_since_epoch())
              .count());
      phase.threadId = threadIndex();
      const ScratchArena::Stats s = ctx_.arena().stats();
      phase.arenaBytesInUse = s.bytesInUse;
      phase.arenaBytesPooled = s.bytesPooled;
      phase.poolConcurrency = ctx_.pool().concurrency();
      phase.cancelled = std::uncaught_exceptions() > uncaught_;
      try {
        ctx_.tracer().record(std::move(phase));
      } catch (...) {
        // Tracing must never turn a run into a crash; drop the record.
      }
    }

   private:
    ExecutionContext& ctx_;
    std::string name_;
    int uncaught_;
    CancelToken::Clock::time_point start_;
  };

  /// Open a traced phase; hold the returned scope for the phase extent.
  [[nodiscard]] PhaseScope phase(std::string name) {
    return PhaseScope(*this, std::move(name));
  }

 private:
  ThreadPool* pool_;
  const exec::Backend* backend_ = &exec::defaultBackend();
  ScratchArena arena_;
  CancelToken cancel_;
  PhaseTracer tracer_;
  std::uint64_t traceId_ = 0;
};

}  // namespace pviz::util
