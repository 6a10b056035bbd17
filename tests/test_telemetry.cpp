// Telemetry registry tests: instrument semantics, snapshot determinism
// under multithreaded recording, Prometheus rendering (golden format)
// and the exposition linter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "telemetry/metric_registry.h"
#include "telemetry/prometheus.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace {

using namespace pviz;
using telemetry::Histogram;
using telemetry::MetricRegistry;

TEST(Counter, SumsAcrossShards) {
  MetricRegistry registry;
  telemetry::Counter& c = registry.counter("c_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreAllCounted) {
  MetricRegistry registry;
  telemetry::Counter& c = registry.counter("c_total");
  util::ThreadPool pool(4);
  pool.parallelFor(0, 100000, 64,
                   [&](std::int64_t b, std::int64_t e) {
                     for (std::int64_t i = b; i < e; ++i) c.inc();
                   });
  EXPECT_EQ(c.value(), 100000u);
}

TEST(Gauge, SetAddRatchet) {
  MetricRegistry registry;
  telemetry::Gauge& g = registry.gauge("g");
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.ratchetMax(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.ratchetMax(11.0);
  EXPECT_DOUBLE_EQ(g.value(), 11.0);
}

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket 0 covers (-inf, 1e-3]; an exact upper bound belongs to its
  // bucket (Prometheus `le` is upper-inclusive).
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(1e-3), 0);
  EXPECT_EQ(Histogram::bucketIndex(std::nextafter(1e-3, 1.0)), 1);
  EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketUpperBound(1)), 1);
  EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketUpperBound(7)), 7);
  EXPECT_EQ(
      Histogram::bucketIndex(
          Histogram::bucketUpperBound(Histogram::kBucketCount - 1)),
      Histogram::kBucketCount - 1);
  // Past the last finite bound: the overflow bucket.
  EXPECT_EQ(Histogram::bucketIndex(
                Histogram::bucketUpperBound(Histogram::kBucketCount - 1) * 2),
            Histogram::kBucketCount);
  EXPECT_EQ(Histogram::bucketIndex(1e300), Histogram::kBucketCount);
  // NaN is treated as bucket 0, not a crash.
  EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0);
}

TEST(Histogram, BucketBoundsDouble) {
  for (int b = 1; b < Histogram::kBucketCount; ++b) {
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(b),
                     2.0 * Histogram::bucketUpperBound(b - 1));
  }
}

TEST(Histogram, SnapshotCountSumMax) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h_ms");
  h.record(1.0);
  h.record(2.0);
  h.record(4.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 7.0);
  EXPECT_DOUBLE_EQ(snap.maxValue, 4.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 7.0 / 3.0);
}

TEST(Histogram, PercentileInterpolates) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h_ms");
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.record(10.0);  // one bucket
  const Histogram::Snapshot snap = h.snapshot();
  // All mass in the (8.192, 16.384] bucket: every percentile must land
  // inside it, and p100 is clamped to the recorded max.
  const int b = Histogram::bucketIndex(10.0);
  const double lo = Histogram::bucketUpperBound(b - 1);
  const double hi = Histogram::bucketUpperBound(b);
  for (double q : {0.5, 0.95, 0.99}) {
    const double p = snap.percentile(q);
    EXPECT_GT(p, lo) << "q=" << q;
    EXPECT_LE(p, hi) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 10.0);
}

TEST(Histogram, PercentileOrdersAcrossBuckets) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("h_ms");
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(1000.0);
  const Histogram::Snapshot snap = h.snapshot();
  const double p50 = snap.percentile(0.50);
  const double p99 = snap.percentile(0.99);
  EXPECT_LT(p50, 2.048);   // inside the 1.0 bucket
  EXPECT_GT(p99, 500.0);   // inside the 1000.0 bucket
  EXPECT_LE(p99, 1000.0);  // clamped to the recorded max
}

// The determinism claim the DESIGN makes: a snapshot of the same
// recorded multiset is bit-identical no matter which threads recorded
// which values, because per-bucket counts and the micro-unit sum merge
// with integer arithmetic.
TEST(Histogram, SnapshotDeterministicUnderThreadPool) {
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(0.001 * static_cast<double>((i * 37) % 1000) +
                     0.0005 * static_cast<double>(i % 7));
  }

  MetricRegistry serialRegistry;
  Histogram& serial = serialRegistry.histogram("h_ms");
  for (double v : values) serial.record(v);
  const Histogram::Snapshot expected = serial.snapshot();

  for (unsigned workers : {2u, 4u, 8u}) {
    MetricRegistry registry;
    Histogram& h = registry.histogram("h_ms");
    util::ThreadPool pool(workers);
    pool.parallelFor(0, static_cast<std::int64_t>(values.size()), 16,
                     [&](std::int64_t b, std::int64_t e) {
                       for (std::int64_t i = b; i < e; ++i) {
                         h.record(values[static_cast<std::size_t>(i)]);
                       }
                     });
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, expected.count) << workers << " workers";
    EXPECT_EQ(snap.sum, expected.sum) << workers << " workers";
    EXPECT_EQ(snap.maxValue, expected.maxValue) << workers << " workers";
    EXPECT_EQ(snap.buckets, expected.buckets) << workers << " workers";
  }
}

TEST(Registry, RegisterOrFetchReturnsSameInstrument) {
  MetricRegistry registry;
  telemetry::Counter& a = registry.counter("x_total", {{"op", "study"}});
  telemetry::Counter& b = registry.counter("x_total", {{"op", "study"}});
  EXPECT_EQ(&a, &b);
  // A different label set is a different series.
  telemetry::Counter& c = registry.counter("x_total", {{"op", "ping"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, RejectsInvalidNamesAndLabels) {
  MetricRegistry registry;
  EXPECT_THROW(registry.counter(""), pviz::Error);
  EXPECT_THROW(registry.counter("1starts_with_digit"), pviz::Error);
  EXPECT_THROW(registry.counter("has-dash"), pviz::Error);
  EXPECT_THROW(registry.counter("ok_total", {{"bad-label", "v"}}),
               pviz::Error);
  EXPECT_THROW(registry.counter("ok_total", {{"__reserved", "v"}}),
               pviz::Error);
  EXPECT_THROW(registry.counter("ok_total", {{"le", "v"}}), pviz::Error);
}

TEST(Registry, RejectsKindMismatch) {
  MetricRegistry registry;
  registry.counter("x_total");
  EXPECT_THROW(registry.gauge("x_total"), pviz::Error);
  EXPECT_THROW(registry.histogram("x_total"), pviz::Error);
}

TEST(Registry, SnapshotIsSortedByNameThenLabels) {
  MetricRegistry registry;
  registry.counter("zzz_total");
  registry.gauge("aaa");
  registry.counter("mmm_total", {{"op", "b"}});
  registry.counter("mmm_total", {{"op", "a"}});
  const auto series = registry.snapshot();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].name, "aaa");
  EXPECT_EQ(series[1].name, "mmm_total");
  EXPECT_EQ(series[1].labels[0].second, "a");
  EXPECT_EQ(series[2].name, "mmm_total");
  EXPECT_EQ(series[2].labels[0].second, "b");
  EXPECT_EQ(series[3].name, "zzz_total");
}

// Golden-format test: the exact exposition text for a small registry.
TEST(Prometheus, GoldenFormat) {
  MetricRegistry registry;
  telemetry::Counter& requests =
      registry.counter("app_requests_total", {{"op", "study"}},
                       "Requests processed");
  requests.inc(7);
  telemetry::Gauge& depth = registry.gauge("app_queue_depth", {}, "Queue");
  depth.set(3.0);

  const std::string text = telemetry::renderPrometheus(registry);
  EXPECT_EQ(text,
            "# HELP app_queue_depth Queue\n"
            "# TYPE app_queue_depth gauge\n"
            "app_queue_depth 3\n"
            "# HELP app_requests_total Requests processed\n"
            "# TYPE app_requests_total counter\n"
            "app_requests_total{op=\"study\"} 7\n");
  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(text, &error)) << error;
}

TEST(Prometheus, HistogramExpositionIsCumulative) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("app_latency_ms", {}, "Latency");
  h.record(0.5);   // bucket le=0.512
  h.record(0.5);
  h.record(100.0); // bucket le=131.072
  const std::string text = telemetry::renderPrometheus(registry);

  EXPECT_NE(text.find("# TYPE app_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_ms_bucket{le=\"0.512\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("app_latency_ms_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("app_latency_ms_count 3\n"), std::string::npos);

  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(text, &error)) << error;
}

TEST(Prometheus, EscapesLabelValuesAndHelp) {
  MetricRegistry registry;
  registry.counter("esc_total", {{"path", "a\"b\\c\nd"}}, "help\nline");
  const std::string text = telemetry::renderPrometheus(registry);
  EXPECT_NE(text.find("# HELP esc_total help\\nline\n"), std::string::npos);
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 0\n"),
            std::string::npos);
  std::string error;
  EXPECT_TRUE(telemetry::lintPrometheus(text, &error)) << error;
}

// A bucket bound that is not a finite number is a lint failure, not an
// exception out of the linter.
TEST(PrometheusLint, RejectsUnparseableBucketBound) {
  for (const char* le : {"x", "1e999", "1x"}) {
    const std::string text = std::string("# TYPE h histogram\n") +
                             "h_bucket{le=\"" + le + "\"} 1\n" +
                             "h_bucket{le=\"+Inf\"} 1\n" +
                             "h_sum 1\n" +
                             "h_count 1\n";
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = telemetry::lintPrometheus(text, &error)) << le;
    EXPECT_FALSE(ok) << le;
    EXPECT_NE(error.find("le bound"), std::string::npos) << error;
  }
}

TEST(PrometheusLint, CatchesStructuralErrors) {
  std::string error;

  EXPECT_FALSE(telemetry::lintPrometheus("", &error));
  EXPECT_FALSE(telemetry::lintPrometheus("x_total 1", &error))
      << "missing trailing newline";
  EXPECT_FALSE(telemetry::lintPrometheus("1bad 3\n", &error));
  EXPECT_FALSE(telemetry::lintPrometheus("x_total\n", &error))
      << "sample without value";
  EXPECT_FALSE(telemetry::lintPrometheus("x_total banana\n", &error));
  EXPECT_FALSE(
      telemetry::lintPrometheus("# TYPE x_total widget\nx_total 1\n",
                                &error));
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n",
      &error))
      << "duplicate TYPE";
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE x_total counter\nx_total -2\n", &error))
      << "negative counter";

  // Histogram invariants.
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_count 2\n",
      &error))
      << "missing _sum";
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 3\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 9\n"
      "h_count 2\n",
      &error))
      << "cumulative counts decrease";
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 9\n"
      "h_count 5\n",
      &error))
      << "+Inf != _count";
  EXPECT_FALSE(telemetry::lintPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_sum 9\n"
      "h_count 1\n",
      &error))
      << "missing +Inf bucket";

  // And a well-formed histogram passes.
  EXPECT_TRUE(telemetry::lintPrometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\n"
      "h_bucket{le=\"2\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 2.5\n"
      "h_count 2\n",
      &error))
      << error;
}

}  // namespace
