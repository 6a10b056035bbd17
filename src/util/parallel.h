// Parallel loop, scan, and compaction primitives used by the kernels:
// index-based parallelFor, parallelReduce, a parallel three-phase
// exclusive scan, and deterministic compaction.  Filters that emit
// variable-sized output count per element, exclusiveScan the counts into
// offsets, allocate once and fill in parallel at those offsets.
//
// Every primitive takes the ExecutionContext the caller runs under: one
// branch on the context's exec::BackendKind (util/backend.h) runs the
// chunks in order on the caller (serial) or on the context's pool
// (threaded), and every chunk polls the context's CancelToken, so a
// cancelled run unwinds at the next chunk edge (the pool captures the
// CancelledError, drains the remaining chunks, and rethrows in the
// caller).
//
// Determinism contract: for a fixed input, every primitive here produces
// bit-identical results on every backend and pool size.  The
// backend only chooses who executes a chunk; chunk boundaries, per-chunk
// arithmetic, and merge order are fixed by the primitive itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace pviz::util {

inline constexpr std::int64_t kDefaultGrain = 1024;

/// Chunk size used by the scan/compaction primitives.  Large enough that
/// the serial scan-of-chunk-sums phase is negligible, small enough to
/// load-balance on every pool size we run.
inline constexpr std::int64_t kScanGrain = 1 << 14;

namespace detail {

/// Run a chunked loop under the context's backend kind, polling the
/// cancel token at every chunk edge.  Serial walks the chunks in order
/// on the caller and never touches the pool, so a serial run neither
/// waits for a pool another thread holds nor nests inside one.
template <typename ChunkFunc>
void dispatchChunks(ExecutionContext& ctx, std::int64_t begin,
                    std::int64_t end, std::int64_t grain, ChunkFunc&& f) {
  auto polled = [&f, &cancel = ctx.cancel()](std::int64_t b, std::int64_t e) {
    cancel.throwIfCancelled();
    f(b, e);
  };
  if (ctx.backend() == exec::BackendKind::Serial) {
    PVIZ_REQUIRE(grain > 0, "chunk grain must be positive");
    for (std::int64_t b = begin; b < end; b += grain) {
      polled(b, std::min(b + grain, end));
    }
  } else {
    ctx.pool().parallelFor(begin, end, grain, polled);
  }
}

}  // namespace detail

/// Run `f(i)` for every i in [begin, end) through the context's backend.
template <typename Func>
void parallelFor(ExecutionContext& ctx, std::int64_t begin, std::int64_t end,
                 Func&& f, std::int64_t grain = kDefaultGrain) {
  detail::dispatchChunks(ctx, begin, end, grain,
                         [&f](std::int64_t b, std::int64_t e) {
                           for (std::int64_t i = b; i < e; ++i) f(i);
                         });
}

/// Run `f(chunkBegin, chunkEnd)` over [begin, end) through the context's
/// backend.
template <typename Func>
void parallelForChunks(ExecutionContext& ctx, std::int64_t begin,
                       std::int64_t end, Func&& f,
                       std::int64_t grain = kDefaultGrain) {
  detail::dispatchChunks(ctx, begin, end, grain, f);
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
  detail::dispatchChunks(ctx, begin, end, grain,
                         [&](std::int64_t b, std::int64_t e) {
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
  if (n <= 2 * kScanGrain || ctx.concurrency() == 1) {
    ctx.checkCancelled();
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
  detail::dispatchChunks(ctx, 0, n, kScanGrain,
                         [&](std::int64_t b, std::int64_t e) {
                           std::int64_t sum = 0;
                           for (std::int64_t i = b; i < e; ++i) {
                             sum += counts[i];
                           }
                           chunkSums[static_cast<std::size_t>(
                               b / kScanGrain)] = sum;
                         });

  // Phase 2: serial exclusive scan of the (few) chunk sums.
  std::int64_t running = 0;
  for (auto& s : chunkSums) {
    const std::int64_t v = s;
    s = running;
    running += v;
  }

  // Phase 3: per-chunk fix-up re-scans each chunk seeded by its offset.
  detail::dispatchChunks(ctx, 0, n, kScanGrain,
                         [&](std::int64_t b, std::int64_t e) {
                           std::int64_t acc = chunkSums[static_cast<
                               std::size_t>(b / kScanGrain)];
                           for (std::int64_t i = b; i < e; ++i) {
                             const std::int64_t v = counts[i];
                             counts[i] = acc;
                             acc += v;
                           }
                         });
  return running;
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
  PVIZ_REQUIRE(grain > 0, "parallelSelect grain must be positive");
  std::vector<std::int64_t> out;
  if (n <= 0) return out;
  if (n <= grain || ctx.concurrency() == 1) {
    ctx.checkCancelled();
    for (std::int64_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(i);
    }
    return out;
  }
  const std::size_t chunkCount =
      static_cast<std::size_t>((n + grain - 1) / grain);
  std::vector<std::int64_t> chunkCounts(chunkCount + 1, 0);
  detail::dispatchChunks(ctx, 0, n, grain,
                         [&](std::int64_t b, std::int64_t e) {
                           std::int64_t count = 0;
                           for (std::int64_t i = b; i < e; ++i) {
                             count += pred(i) ? 1 : 0;
                           }
                           chunkCounts[static_cast<std::size_t>(b / grain)] =
                               count;
                         });
  const std::int64_t total = exclusiveScan(ctx, chunkCounts);
  out.resize(static_cast<std::size_t>(total));
  detail::dispatchChunks(ctx, 0, n, grain,
                         [&](std::int64_t b, std::int64_t e) {
                           auto at = static_cast<std::size_t>(
                               chunkCounts[static_cast<std::size_t>(b / grain)]);
                           for (std::int64_t i = b; i < e; ++i) {
                             if (pred(i)) out[at++] = i;
                           }
                         });
  return out;
}

}  // namespace pviz::util
