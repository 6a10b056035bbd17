// A small, dependency-free thread pool with blocked-range parallel loops.
//
// This is PowerViz's stand-in for Intel TBB (which the paper used through
// VTK-m's TBB device adapter).  It provides the three primitives the
// visualization kernels need:
//
//   * parallelFor(begin, end, grain, f)   — f(chunkBegin, chunkEnd)
//   * parallelReduce(begin, end, id, map, combine)
//   * scheduler-wide worker count query (used by the performance model)
//
// Work is divided into fixed chunks handed out from an atomic cursor, so
// imbalanced iterations (e.g. marching-cubes cells with wildly different
// triangle counts) still load-balance across workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace pviz::util {

/// A persistent pool of worker threads executing blocked-range loops.
///
/// The pool is safe to use from any number of caller threads: concurrent
/// loops are serialized through an admission mutex (one loop owns the
/// workers at a time — the service layer issues characterizations from
/// several request workers).  Nested parallelism executes the inner loop
/// serially on the calling worker (the same policy VTK-m uses for its
/// serial fallback).
class ThreadPool {
 public:
  /// Create a pool with `workers` threads (0 = hardware concurrency).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that participate in a loop (workers + caller).
  unsigned concurrency() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Run `body(chunkBegin, chunkEnd)` over [begin, end) in chunks of at
  /// most `grain` iterations.  Blocks until all chunks complete.
  /// Exceptions thrown by `body` are captured and rethrown (first wins).
  ///
  /// The callable is invoked through a single function-pointer thunk per
  /// chunk — no std::function allocation or double indirection on the
  /// dispatch path.
  template <typename Body>
  void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   Body&& body) {
    using Stored = std::remove_reference_t<Body>;
    parallelForImpl(
        begin, end, grain,
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        [](void* ctx, std::int64_t b, std::int64_t e) {
          (*static_cast<Stored*>(ctx))(b, e);
        });
  }

  /// The process-wide pool behind ExecutionContext's default
  /// constructor, and nothing else.  Tests pin pool sizes by constructing
  /// `ThreadPool pool(n); ExecutionContext ctx(pool);`.
  static ThreadPool& global();

 private:
  using ChunkInvoker = void (*)(void*, std::int64_t, std::int64_t);

  void parallelForImpl(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, void* ctx, ChunkInvoker invoke);
  void workerLoop();
  void runChunks();

  struct Job {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    void* ctx = nullptr;
    ChunkInvoker invoke = nullptr;
    std::atomic<std::int64_t> cursor{0};
    std::atomic<unsigned> active{0};
  };

  std::vector<std::thread> threads_;
  std::mutex callerMutex_;  // admits one top-level loop at a time
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;           // guarded by mutex_ for publication
  std::uint64_t epoch_ = 0;      // bumped per job so workers never miss one
  bool stop_ = false;
  std::exception_ptr firstError_;  // guarded by mutex_
  static thread_local bool insideWorker_;
};

}  // namespace pviz::util
