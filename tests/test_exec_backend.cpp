// Unit tests for the execution choice (util/backend.h and the dispatch
// branch in util/parallel.h): token round-trips, dispatch coverage and
// chunk shape per backend kind, and ExecutionContext backend selection.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/backend.h"
#include "util/exec_context.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace pviz {
namespace {

using exec::BackendKind;

TEST(BackendTokens, RoundTripAndReject) {
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    EXPECT_EQ(exec::parseBackendToken(exec::backendToken(kind)), kind);
  }
  EXPECT_THROW(exec::parseBackendToken("cuda"), Error);
  EXPECT_THROW(exec::parseBackendToken(""), Error);
  // The retired SIMD-loop backend is an unknown token like any other,
  // and the error names the two that remain.
  try {
    exec::parseBackendToken("vectorized");
    ADD_FAILURE() << "parseBackendToken(\"vectorized\") did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("serial threaded"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackendConcurrency, SerialIsOneThreadedFollowsPool) {
  util::ThreadPool pool(3);
  util::ExecutionContext serial(pool);
  serial.setBackend(BackendKind::Serial);
  EXPECT_EQ(serial.concurrency(), 1u);
  util::ExecutionContext threaded(pool);
  threaded.setBackend(BackendKind::Threaded);
  EXPECT_EQ(threaded.concurrency(), pool.concurrency());
}

TEST(BackendDispatch, CoversRangeExactlyOnceWithGrainBound) {
  constexpr std::int64_t kN = 10'000;
  constexpr std::int64_t kGrain = 128;
  util::ThreadPool pool(2);
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    util::ExecutionContext ctx(pool);
    ctx.setBackend(kind);
    std::vector<int> hits(kN, 0);
    std::mutex mutex;
    std::int64_t chunks = 0;
    std::int64_t maxChunk = 0;
    util::parallelForChunks(
        ctx, 0, kN,
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            ++hits[static_cast<std::size_t>(i)];
          }
          std::lock_guard lock(mutex);
          ++chunks;
          maxChunk = std::max(maxChunk, e - b);
        },
        kGrain);
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), kN)
        << exec::backendToken(kind);
    EXPECT_EQ(chunks, (kN + kGrain - 1) / kGrain);
    EXPECT_LE(maxChunk, kGrain);
  }
}

TEST(BackendDispatch, EmptyRangeRunsNothing) {
  util::ThreadPool pool(2);
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    util::ExecutionContext ctx(pool);
    ctx.setBackend(kind);
    int calls = 0;
    util::parallelForChunks(
        ctx, 5, 5, [&](std::int64_t, std::int64_t) { ++calls; }, 64);
    EXPECT_EQ(calls, 0) << exec::backendToken(kind);
  }
}

TEST(BackendDispatch, SerialContextNeverWaitsForABusyPool) {
  // The advisor's `--backend serial` servers share one pool between
  // request workers: a serial run must not queue behind a threaded loop
  // that holds the pool.  Thread A parks the pool in a loop until
  // released; thread B then runs a serial loop over the same pool.
  util::ThreadPool pool(2);
  std::promise<void> poolBusy;
  std::atomic<bool> release{false};
  std::thread holder([&] {
    util::ExecutionContext threaded(pool);
    threaded.setBackend(BackendKind::Threaded);
    std::once_flag started;
    util::parallelForChunks(
        threaded, 0, 2,
        [&](std::int64_t, std::int64_t) {
          std::call_once(started, [&] { poolBusy.set_value(); });
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        },
        1);
  });
  poolBusy.get_future().wait();

  auto serialRun = std::async(std::launch::async, [&] {
    util::ExecutionContext serial(pool);
    serial.setBackend(BackendKind::Serial);
    std::int64_t sum = 0;
    util::parallelFor(serial, 0, 1000, [&](std::int64_t i) { sum += i; }, 8);
    return sum;
  });
  const bool finished = serialRun.wait_for(std::chrono::seconds(20)) ==
                        std::future_status::ready;
  release.store(true);
  holder.join();
  EXPECT_TRUE(finished) << "serial loop waited for the busy pool";
  EXPECT_EQ(serialRun.get(), 999 * 1000 / 2);
}

TEST(ExecutionContextBackend, DefaultsAndSwaps) {
  util::ExecutionContext ctx;
  EXPECT_EQ(ctx.backend(), exec::defaultBackendKind());
  ctx.setBackend(BackendKind::Serial);
  EXPECT_EQ(ctx.backend(), BackendKind::Serial);

  // The parallel primitives follow the context's backend: under the
  // serial backend a parallelFor runs on the calling thread even when
  // the context owns a multi-thread pool.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  util::parallelFor(ctx, 0, 64, [&](std::int64_t i) {
    seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  }, 8);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ExecutionContextBackend, PrimitivesMatchAcrossBackends) {
  // Scan / select / reduce / gather must be bit-identical on both
  // backends (the filter-level equivalence lives in the determinism
  // suite; this is the primitive-level contract).
  constexpr std::int64_t kN = 100'000;
  util::ExecutionContext reference;
  reference.setBackend(BackendKind::Serial);

  std::vector<std::int64_t> counts(kN);
  for (std::int64_t i = 0; i < kN; ++i) counts[static_cast<std::size_t>(i)] = i % 7;
  std::vector<std::int64_t> refScan = counts;
  const std::int64_t refTotal = util::exclusiveScan(reference, refScan);
  const std::vector<std::int64_t> refSel =
      util::parallelSelect(reference, kN, [](std::int64_t i) {
        return i % 13 == 0;
      });
  const double refSum = util::parallelReduce(
      reference, 0, kN, 0.0,
      [](double acc, std::int64_t i) {
        return acc + static_cast<double>(i) * 1e-3;
      },
      [](double a, double b) { return a + b; });

  util::ExecutionContext ctx;
  ctx.setBackend(BackendKind::Threaded);
  std::vector<std::int64_t> scan = counts;
  EXPECT_EQ(util::exclusiveScan(ctx, scan), refTotal);
  EXPECT_EQ(scan, refScan);
  EXPECT_EQ(util::parallelSelect(ctx, kN, [](std::int64_t i) {
    return i % 13 == 0;
  }), refSel);
  const double sum = util::parallelReduce(
      ctx, 0, kN, 0.0,
      [](double acc, std::int64_t i) {
        return acc + static_cast<double>(i) * 1e-3;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(sum, refSum);
}

}  // namespace
}  // namespace pviz
