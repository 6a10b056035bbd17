// Parallel loop, scan, and compaction primitives used by the kernels:
// index-based parallelFor, parallelReduce, a parallel three-phase
// exclusive scan, and deterministic compaction.  Filters that emit
// variable-sized output count per element, exclusiveScan the counts into
// offsets, allocate once and fill in parallel at those offsets.
//
// Every primitive has two forms.  The ExecutionContext form is the real
// one: it dispatches chunks through the context's exec::Backend (serial
// or threaded — see util/backend.h) onto the context's pool and
// polls the context's CancelToken at chunk boundaries, so a cancelled run
// unwinds at the next chunk edge (the pool captures the CancelledError,
// drains the remaining chunks, and rethrows in the caller).  The
// context-free form is a compatibility shim over the process-global pool
// and process-default backend with no cancellation; it exists for leaf
// utilities and tests that have no context to thread.
//
// Determinism contract: for a fixed input, every primitive here produces
// bit-identical results on every backend, pool size, and schedule.  The
// backend only chooses who executes a chunk; chunk boundaries, per-chunk
// arithmetic, and merge order are fixed by the primitive itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace pviz::util {

inline constexpr std::int64_t kDefaultGrain = 1024;

/// Chunk size used by the scan/compaction primitives.  Large enough that
/// the serial scan-of-chunk-sums phase is negligible, small enough to
/// load-balance on every pool size we run.
inline constexpr std::int64_t kScanGrain = 1 << 14;

namespace detail {

/// Chunk-boundary cancellation point: nullptr means "not cancellable".
inline void pollCancel(CancelToken* cancel) {
  if (cancel != nullptr) cancel->throwIfCancelled();
}

/// Hand a chunked loop to the backend, type-erasing `f(b, e)` through
/// the same thunk pattern ThreadPool uses (no std::function).
template <typename ChunkFunc>
void dispatchChunks(const exec::Backend& backend, ThreadPool& pool,
                    CancelToken* cancel, std::int64_t begin, std::int64_t end,
                    std::int64_t grain, ChunkFunc&& f) {
  using Stored = std::remove_reference_t<ChunkFunc>;
  backend.forChunks(
      pool, cancel, begin, end, grain,
      const_cast<void*>(static_cast<const void*>(std::addressof(f))),
      [](void* env, std::int64_t b, std::int64_t e) {
        (*static_cast<Stored*>(env))(b, e);
      });
}

template <typename Func>
void parallelForOn(const exec::Backend& backend, ThreadPool& pool,
                   CancelToken* cancel, std::int64_t begin, std::int64_t end,
                   Func&& f, std::int64_t grain) {
  dispatchChunks(backend, pool, cancel, begin, end, grain,
                 [&f, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   for (std::int64_t i = b; i < e; ++i) f(i);
                 });
}

template <typename Func>
void parallelForChunksOn(const exec::Backend& backend, ThreadPool& pool,
                         CancelToken* cancel, std::int64_t begin,
                         std::int64_t end, Func&& f, std::int64_t grain) {
  dispatchChunks(backend, pool, cancel, begin, end, grain,
                 [&f, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   f(b, e);
                 });
}

template <typename T, typename Map, typename Combine>
T parallelReduceOn(const exec::Backend& backend, ThreadPool& pool,
                   CancelToken* cancel, std::int64_t begin, std::int64_t end,
                   T identity, Map&& map, Combine&& combine,
                   std::int64_t grain) {
  if (begin >= end) return identity;
  PVIZ_REQUIRE(grain > 0, "parallelReduce grain must be positive");
  const std::size_t chunkCount =
      static_cast<std::size_t>((end - begin + grain - 1) / grain);
  std::vector<T> partials(chunkCount, identity);
  // A dispatcher may hand out coarser chunks than `grain` (the pool
  // merges the whole range when running inline or nested), so the
  // per-grain partials are re-cut here: the accumulation grouping — and
  // with it the floating-point association — is fixed by `grain` alone,
  // never by who executed which chunk.
  dispatchChunks(backend, pool, cancel, begin, end, grain,
                 [&, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   std::int64_t cb = b;
                   while (cb < e) {
                     const std::int64_t chunk = (cb - begin) / grain;
                     const std::int64_t ce =
                         std::min(e, begin + (chunk + 1) * grain);
                     T acc = identity;
                     for (std::int64_t i = cb; i < ce; ++i) {
                       acc = map(std::move(acc), i);
                     }
                     partials[static_cast<std::size_t>(chunk)] =
                         std::move(acc);
                     cb = ce;
                   }
                 });
  T total = std::move(identity);
  for (auto& p : partials) total = combine(std::move(total), std::move(p));
  return total;
}

inline std::int64_t exclusiveScanOn(const exec::Backend& backend,
                                    ThreadPool& pool, CancelToken* cancel,
                                    std::int64_t* counts, std::int64_t n) {
  if (n <= 2 * kScanGrain || backend.concurrency(pool) == 1) {
    pollCancel(cancel);
    std::int64_t running = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t v = counts[i];
      counts[i] = running;
      running += v;
    }
    return running;
  }

  // Phase 1: independent chunk sums.
  const std::size_t chunkCount =
      static_cast<std::size_t>((n + kScanGrain - 1) / kScanGrain);
  std::vector<std::int64_t> chunkSums(chunkCount, 0);
  dispatchChunks(backend, pool, cancel, 0, n, kScanGrain,
                 [&, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   std::int64_t sum = 0;
                   for (std::int64_t i = b; i < e; ++i) sum += counts[i];
                   chunkSums[static_cast<std::size_t>(b / kScanGrain)] = sum;
                 });

  // Phase 2: serial exclusive scan of the (few) chunk sums.
  std::int64_t running = 0;
  for (auto& s : chunkSums) {
    const std::int64_t v = s;
    s = running;
    running += v;
  }

  // Phase 3: per-chunk fix-up re-scans each chunk seeded by its offset.
  dispatchChunks(backend, pool, cancel, 0, n, kScanGrain,
                 [&, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   std::int64_t acc =
                       chunkSums[static_cast<std::size_t>(b / kScanGrain)];
                   for (std::int64_t i = b; i < e; ++i) {
                     const std::int64_t v = counts[i];
                     counts[i] = acc;
                     acc += v;
                   }
                 });
  return running;
}

template <typename Pred>
std::vector<std::int64_t> parallelSelectOn(const exec::Backend& backend,
                                           ThreadPool& pool,
                                           CancelToken* cancel, std::int64_t n,
                                           Pred&& pred, std::int64_t grain) {
  PVIZ_REQUIRE(grain > 0, "parallelSelect grain must be positive");
  std::vector<std::int64_t> out;
  if (n <= 0) return out;
  if (n <= grain || backend.concurrency(pool) == 1) {
    pollCancel(cancel);
    for (std::int64_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(i);
    }
    return out;
  }
  const std::size_t chunkCount =
      static_cast<std::size_t>((n + grain - 1) / grain);
  std::vector<std::int64_t> chunkCounts(chunkCount + 1, 0);
  dispatchChunks(backend, pool, cancel, 0, n, grain,
                 [&, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   std::int64_t count = 0;
                   for (std::int64_t i = b; i < e; ++i) {
                     count += pred(i) ? 1 : 0;
                   }
                   chunkCounts[static_cast<std::size_t>(b / grain)] = count;
                 });
  const std::int64_t total =
      exclusiveScanOn(backend, pool, cancel, chunkCounts.data(),
                      static_cast<std::int64_t>(chunkCounts.size()));
  out.resize(static_cast<std::size_t>(total));
  dispatchChunks(backend, pool, cancel, 0, n, grain,
                 [&, cancel](std::int64_t b, std::int64_t e) {
                   pollCancel(cancel);
                   auto at = static_cast<std::size_t>(
                       chunkCounts[static_cast<std::size_t>(b / grain)]);
                   for (std::int64_t i = b; i < e; ++i) {
                     if (pred(i)) out[at++] = i;
                   }
                 });
  return out;
}

}  // namespace detail

// ---- context-taking forms (backend dispatch + chunk cancellation) ------

/// Run `f(i)` for every i in [begin, end) through the context's backend.
template <typename Func>
void parallelFor(ExecutionContext& ctx, std::int64_t begin, std::int64_t end,
                 Func&& f, std::int64_t grain = kDefaultGrain) {
  detail::parallelForOn(ctx.backend(), ctx.pool(), &ctx.cancel(), begin, end,
                        std::forward<Func>(f), grain);
}

/// Run `f(chunkBegin, chunkEnd)` over [begin, end) through the context's
/// backend.
template <typename Func>
void parallelForChunks(ExecutionContext& ctx, std::int64_t begin,
                       std::int64_t end, Func&& f,
                       std::int64_t grain = kDefaultGrain) {
  detail::parallelForChunksOn(ctx.backend(), ctx.pool(), &ctx.cancel(), begin,
                              end, std::forward<Func>(f), grain);
}

/// Map-reduce over [begin, end): `identity` seeds each chunk, `map(acc, i)`
/// folds an index into a chunk accumulator, and `combine(a, b)` merges
/// chunk results.  Partials are indexed by chunk (chunks are grain-aligned
/// from `begin` on every backend) and combined in chunk order, so
/// identical inputs reduce in the same order on every run regardless of
/// thread scheduling — floating-point reductions are bit-reproducible,
/// which the Rng header's determinism contract depends on.
template <typename T, typename Map, typename Combine>
T parallelReduce(ExecutionContext& ctx, std::int64_t begin, std::int64_t end,
                 T identity, Map&& map, Combine&& combine,
                 std::int64_t grain = kDefaultGrain) {
  return detail::parallelReduceOn(ctx.backend(), ctx.pool(), &ctx.cancel(),
                                  begin, end, std::move(identity),
                                  std::forward<Map>(map),
                                  std::forward<Combine>(combine), grain);
}

/// Exclusive prefix sum of `counts[0, n)`; returns the grand total.  Used
/// by the two-pass "count then fill" pattern every variable-output filter
/// follows.  The pointer form exists so arena-backed scratch arrays scan
/// in place.
///
/// Arrays past one chunk run as a three-phase tree scan (per-chunk sums →
/// serial scan of the sums → parallel per-chunk fix-up); smaller inputs —
/// or single-threaded execution (the serial backend, a one-thread pool),
/// where the extra passes only cost bandwidth — take a single serial
/// sweep.  Both paths are exact integer arithmetic, so the result is
/// identical everywhere.
inline std::int64_t exclusiveScan(ExecutionContext& ctx, std::int64_t* counts,
                                  std::int64_t n) {
  return detail::exclusiveScanOn(ctx.backend(), ctx.pool(), &ctx.cancel(),
                                 counts, n);
}

inline std::int64_t exclusiveScan(ExecutionContext& ctx,
                                  std::vector<std::int64_t>& counts) {
  return exclusiveScan(ctx, counts.data(),
                       static_cast<std::int64_t>(counts.size()));
}

/// Stream-compact the indices in [0, n) where `pred(i)` holds, in
/// ascending order.  Runs as count → chunk scan → fill; the output is
/// identical for every backend, pool size, and grain because chunks are
/// fixed ranges written at scanned offsets.
template <typename Pred>
std::vector<std::int64_t> parallelSelect(ExecutionContext& ctx, std::int64_t n,
                                         Pred&& pred,
                                         std::int64_t grain = kScanGrain) {
  return detail::parallelSelectOn(ctx.backend(), ctx.pool(), &ctx.cancel(), n,
                                  std::forward<Pred>(pred), grain);
}

// ---- compatibility shims (global pool, default backend, no cancel) -----

template <typename Func>
void parallelFor(std::int64_t begin, std::int64_t end, Func&& f,
                 std::int64_t grain = kDefaultGrain) {
  detail::parallelForOn(exec::defaultBackend(), ThreadPool::global(), nullptr,
                        begin, end, std::forward<Func>(f), grain);
}

template <typename Func>
void parallelForChunks(std::int64_t begin, std::int64_t end, Func&& f,
                       std::int64_t grain = kDefaultGrain) {
  detail::parallelForChunksOn(exec::defaultBackend(), ThreadPool::global(),
                              nullptr, begin, end, std::forward<Func>(f),
                              grain);
}

template <typename T, typename Map, typename Combine>
T parallelReduce(std::int64_t begin, std::int64_t end, T identity, Map&& map,
                 Combine&& combine, std::int64_t grain = kDefaultGrain) {
  return detail::parallelReduceOn(exec::defaultBackend(), ThreadPool::global(),
                                  nullptr, begin, end, std::move(identity),
                                  std::forward<Map>(map),
                                  std::forward<Combine>(combine), grain);
}

inline std::int64_t exclusiveScan(std::vector<std::int64_t>& counts) {
  return detail::exclusiveScanOn(exec::defaultBackend(), ThreadPool::global(),
                                 nullptr, counts.data(),
                                 static_cast<std::int64_t>(counts.size()));
}

template <typename Pred>
std::vector<std::int64_t> parallelSelect(std::int64_t n, Pred&& pred,
                                         std::int64_t grain = kScanGrain) {
  return detail::parallelSelectOn(exec::defaultBackend(), ThreadPool::global(),
                                  nullptr, n, std::forward<Pred>(pred), grain);
}

}  // namespace pviz::util
