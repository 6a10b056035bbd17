// Stats, RNG, tables, logging, error-handling utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace pviz::util {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({10.0}, 0.7), 10.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
}

TEST(ApproxEqual, Basics) {
  EXPECT_TRUE(approxEqual(1.0, 1.0));
  EXPECT_TRUE(approxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approxEqual(1.0, 1.001));
  EXPECT_TRUE(approxEqual(1.0, 1.001, 1e-2));
  EXPECT_TRUE(approxEqual(0.0, 0.0));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues reached
}

// Chi-squared goodness-of-fit for below() on a non-power-of-two bound.
// 13 buckets, 130k draws: under uniformity the statistic is chi²(12),
// whose 99.9th percentile is 32.9 — a deterministic seed keeps this
// reproducible rather than flaky.
TEST(Rng, BelowIsUniformChiSquared) {
  constexpr std::uint64_t kBuckets = 13;
  constexpr int kDraws = 130000;
  Rng rng(2024);
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(kBuckets))];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int observed : counts) {
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 32.9) << "below(13) deviates from uniform";
}

// Regression for the missing Lemire rejection step.  For n = 3·2^62 the
// bare multiply-shift maps half of all 64-bit inputs onto outputs that
// are ≡ 0 (mod 3) (every third output value gets two preimages instead
// of one), so P(v % 3 == 0) was 1/2 instead of 1/3 — detectable with a
// few thousand draws.  With the rejection loop the residues are exactly
// equiprobable.
TEST(Rng, BelowLargeBoundIsUnbiased) {
  constexpr std::uint64_t kBound = 3ull << 62;
  constexpr int kDraws = 30000;
  Rng rng(7);
  int residues[3] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) {
    ++residues[static_cast<std::size_t>(rng.below(kBound) % 3)];
  }
  const double expected = kDraws / 3.0;
  double chi2 = 0.0;
  for (int observed : residues) {
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  // chi²(2) 99.9th percentile = 13.8; the pre-fix bias scores ~7500.
  EXPECT_LT(chi2, 13.8) << "residue counts " << residues[0] << "/"
                        << residues[1] << "/" << residues[2];
}

TEST(Rng, BelowDeterministicForSameSeed) {
  Rng a(555), b(555);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.below(1000003), b.below(1000003));
  }
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t;
  t.setHeader({"A", "LongColumn"});
  t.addRow({"xx", "1"});
  t.addRow({"y", "22"});
  EXPECT_EQ(t.rowCount(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("LongColumn"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t;
  t.setHeader({"A", "B"});
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

TEST(TextTable, RejectsHeaderAfterRows) {
  TextTable t;
  t.setHeader({"A"});
  t.addRow({"1"});
  EXPECT_THROW(t.setHeader({"B"}), Error);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.writeRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Format, FixedAndRatio) {
  EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
  EXPECT_EQ(formatFixed(120.0, 0), "120");
  EXPECT_EQ(formatRatio(1.174), "1.17X");
  EXPECT_EQ(formatRatio(1.1, true), "1.10X*");
}

TEST(Log, LevelGateWorks) {
  const LogLevel old = logLevel();
  setLogLevel(LogLevel::Error);
  EXPECT_EQ(logLevel(), LogLevel::Error);
  PVIZ_LOG_DEBUG("should not crash");
  setLogLevel(old);
}

TEST(ErrorMacros, RequireThrowsWithMessage) {
  try {
    PVIZ_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace pviz::util
