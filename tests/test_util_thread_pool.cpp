// Thread pool and parallel-primitive tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pviz::util {
namespace {

TEST(ThreadPool, ConcurrencyIsAtLeastOne) {
  ThreadPool pool(1);
  EXPECT_GE(pool.concurrency(), 1u);
  ThreadPool big(4);
  EXPECT_EQ(big.concurrency(), 4u);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kCount = 100000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.parallelFor(0, kCount, 128, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallelFor(5, 5, 16, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallelFor(7, 3, 16, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RejectsNonPositiveGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(0, 10, 0, [](std::int64_t, std::int64_t) {}),
      Error);
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(0, 10000, 16,
                                [&](std::int64_t b, std::int64_t) {
                                  if (b >= 4096) throw Error("boom");
                                }),
               Error);
  // The pool must stay usable afterwards.
  std::atomic<std::int64_t> sum{0};
  pool.parallelFor(0, 100, 8, [&](std::int64_t b, std::int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, NestedLoopsRunInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallelFor(0, 64, 4, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallelFor(0, 10, 2, [&](std::int64_t ib, std::int64_t ie) {
        total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 640);
}

TEST(ThreadPool, ManySequentialLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(0, 1000, 64, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 999 * 1000 / 2) << "round " << round;
  }
}

TEST(ParallelFor, IndexConvenienceWrapper) {
  std::vector<int> hits(5000, 0);
  ExecutionContext ctx;
  parallelFor(ctx, 0, 5000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 5000);
}

TEST(ParallelReduce, SumsCorrectly) {
  const std::int64_t n = 123457;
  ExecutionContext ctx;
  const auto total = parallelReduce<std::int64_t>(
      ctx, 0, n, 0, [](std::int64_t acc, std::int64_t i) { return acc + i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ExecutionContext ctx;
  const auto total = parallelReduce<int>(
      ctx, 10, 10, 42, [](int acc, std::int64_t) { return acc + 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 42);
}

// Regression: partials used to be pushed in thread-completion order, so
// a floating-point sum could combine in a different order on every run
// — breaking the bit-reproducibility contract in util/rng.h.  Partials
// are now indexed by chunk, so repeated reductions of the same input
// must agree to the last bit no matter how the scheduler interleaves.
TEST(ParallelReduce, FloatingPointSumIsBitReproducible) {
  // Values spanning ~16 orders of magnitude make the sum highly
  // sensitive to combine order.
  constexpr std::int64_t kCount = 100000;
  std::vector<double> values(static_cast<std::size_t>(kCount));
  Rng rng(321);
  for (auto& v : values) {
    v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8.0, 8.0));
  }

  ExecutionContext ctx;
  auto reduceOnce = [&] {
    return parallelReduce<double>(
        ctx, 0, kCount, 0.0,
        [&](double acc, std::int64_t i) {
          return acc + values[static_cast<std::size_t>(i)];
        },
        [](double a, double b) { return a + b; },
        /*grain=*/97);  // many small chunks → many interleavings
  };

  const double first = reduceOnce();
  for (int run = 0; run < 60; ++run) {
    const double again = reduceOnce();
    ASSERT_EQ(std::memcmp(&first, &again, sizeof first), 0)
        << "run " << run << ": " << first << " vs " << again;
  }
}

// The partials vector is chunk-indexed off grain-aligned offsets; an
// awkward (count, grain) pair must still visit every index exactly once
// and combine every chunk.
TEST(ParallelReduce, ChunkIndexingCoversAwkwardRanges) {
  ExecutionContext ctx;
  for (const std::int64_t grain : {1, 3, 97, 4096}) {
    const std::int64_t n = 12345;
    const auto total = parallelReduce<std::int64_t>(
        ctx, -7, n, 0, [](std::int64_t acc, std::int64_t i) { return acc + i; },
        [](std::int64_t a, std::int64_t b) { return a + b; }, grain);
    EXPECT_EQ(total, (n - 1) * n / 2 - 28) << "grain " << grain;
  }
}

TEST(ExclusiveScan, BasicAndTotal) {
  std::vector<std::int64_t> counts = {3, 0, 5, 2};
  ExecutionContext ctx;
  const std::int64_t total = exclusiveScan(ctx, counts);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(counts, (std::vector<std::int64_t>{0, 3, 3, 8}));
}

TEST(ExclusiveScan, EmptyVector) {
  std::vector<std::int64_t> counts;
  ExecutionContext ctx;
  EXPECT_EQ(exclusiveScan(ctx, counts), 0);
}

// Property sweep: chunk boundaries cover the range for many (size, grain)
// combinations.
class ParallelForSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(ParallelForSweep, CoversRange) {
  const auto [count, grain] = GetParam();
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> chunks{0};
  pool.parallelFor(0, count, grain, [&](std::int64_t b, std::int64_t e) {
    ASSERT_LE(e - b, grain);
    ASSERT_LT(b, e);
    sum.fetch_add(e - b);
    chunks.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), count);
  EXPECT_EQ(chunks.load(), (count + grain - 1) / grain);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndGrains, ParallelForSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 7, 64, 1000, 65537),
                       ::testing::Values<std::int64_t>(1, 3, 64, 4096)));

}  // namespace
}  // namespace pviz::util
