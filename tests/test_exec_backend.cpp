// Unit tests for the execution-backend abstraction (util/backend.h):
// token round-trips, singleton identity, dispatch coverage and chunk
// shape per backend, and ExecutionContext backend selection.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
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

using exec::Backend;
using exec::BackendKind;

TEST(BackendTokens, RoundTripAndReject) {
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    EXPECT_EQ(exec::parseBackendToken(exec::backendToken(kind)), kind);
    EXPECT_EQ(exec::backendFor(kind).kind(), kind);
    EXPECT_STREQ(exec::backendFor(kind).token(), exec::backendToken(kind));
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

TEST(BackendSingletons, StableIdentity) {
  EXPECT_EQ(&exec::serialBackend(), &exec::backendFor(BackendKind::Serial));
  EXPECT_EQ(&exec::threadedBackend(),
            &exec::backendFor(BackendKind::Threaded));
}

TEST(BackendConcurrency, SerialIsOneThreadedFollowsPool) {
  util::ThreadPool pool(3);
  EXPECT_EQ(exec::serialBackend().concurrency(pool), 1u);
  EXPECT_EQ(exec::threadedBackend().concurrency(pool), pool.concurrency());
}

struct SumEnv {
  std::vector<std::int64_t> data;
  std::mutex mutex;
  std::int64_t sum = 0;
  std::int64_t chunks = 0;
  std::int64_t maxChunk = 0;
};

void sumChunk(void* envPtr, std::int64_t begin, std::int64_t end) {
  auto* env = static_cast<SumEnv*>(envPtr);
  std::int64_t local = 0;
  for (std::int64_t i = begin; i < end; ++i) {
    local += env->data[static_cast<std::size_t>(i)];
  }
  std::lock_guard lock(env->mutex);
  env->sum += local;
  ++env->chunks;
  env->maxChunk = std::max(env->maxChunk, end - begin);
}

TEST(BackendDispatch, CoversRangeExactlyOnceWithGrainBound) {
  constexpr std::int64_t kN = 10'000;
  constexpr std::int64_t kGrain = 128;
  util::ThreadPool pool(2);
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    SumEnv env;
    env.data.resize(kN);
    std::iota(env.data.begin(), env.data.end(), std::int64_t{1});
    exec::backendFor(kind).forChunks(pool, 0, kN, kGrain, &env,
                                     &sumChunk);
    EXPECT_EQ(env.sum, kN * (kN + 1) / 2) << exec::backendToken(kind);
    EXPECT_EQ(env.chunks, (kN + kGrain - 1) / kGrain);
    EXPECT_LE(env.maxChunk, kGrain);
  }
}

TEST(BackendDispatch, EmptyRangeRunsNothing) {
  util::ThreadPool pool(2);
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    SumEnv env;
    exec::backendFor(kind).forChunks(pool, 5, 5, 64, &env, &sumChunk);
    EXPECT_EQ(env.chunks, 0) << exec::backendToken(kind);
  }
}

TEST(ExecutionContextBackend, DefaultsAndSwaps) {
  util::ExecutionContext ctx;
  EXPECT_EQ(&ctx.backend(), &exec::defaultBackend());
  ctx.setBackend(exec::serialBackend());
  EXPECT_EQ(&ctx.backend(), &exec::serialBackend());
  EXPECT_EQ(ctx.backend().kind(), BackendKind::Serial);

  // The parallel primitives follow the context's backend: under the
  // serial backend a parallelFor runs on the calling thread even when
  // the context owns a multi-thread pool.
  ctx.setBackend(exec::serialBackend());
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
  reference.setBackend(exec::serialBackend());

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
  ctx.setBackend(exec::threadedBackend());
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
