// CSV reporting and energy metric tests.
#include <gtest/gtest.h>

#include <sstream>

#include "core/execution_sim.h"
#include "core/report.h"

namespace pviz::core {
namespace {

vis::KernelProfile sampleKernel() {
  vis::KernelProfile k;
  k.kernel = "sample";
  k.elements = 1 << 20;
  vis::WorkProfile& p = k.addPhase("work");
  p.flops = 2e10;
  p.intOps = 1e10;
  p.memOps = 8e9;
  p.bytesStreamed = 5e9;
  p.parallelFraction = 0.99;
  p.overlap = 0.8;
  return k;
}

std::vector<ConfigRecord> sampleSweep() {
  std::vector<ConfigRecord> sweep;
  ExecutionSimulator sim;
  const auto kernel = sampleKernel();
  Measurement base;
  for (double cap : {120.0, 80.0, 40.0}) {
    ConfigRecord r;
    r.algorithm = Algorithm::Contour;
    r.size = 64;
    r.capWatts = cap;
    r.measurement = sim.run(kernel, cap);
    if (cap == 120.0) base = r.measurement;
    r.ratios = computeRatios(base, 120.0, r.measurement, cap);
    sweep.push_back(std::move(r));
  }
  return sweep;
}

TEST(Report, CsvHasHeaderAndOneRowPerRecord) {
  const auto sweep = sampleSweep();
  std::ostringstream os;
  writeStudyCsv(sweep, os);
  const std::string csv = os.str();
  // Header + 3 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("algorithm,size,cap_watts"), std::string::npos);
  EXPECT_NE(csv.find("Contour,64,120.000"), std::string::npos);
  // 13 columns per row.
  const std::string firstLine = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(std::count(firstLine.begin(), firstLine.end(), ','), 12);
}

TEST(Report, EnergyMetricsAreConsistent) {
  const auto sweep = sampleSweep();
  const EnergyMetrics em = energyMetrics(sweep[0].measurement);
  EXPECT_DOUBLE_EQ(em.energyJoules, sweep[0].measurement.energyJoules);
  EXPECT_DOUBLE_EQ(em.edp,
                   em.energyJoules * sweep[0].measurement.seconds);
  EXPECT_DOUBLE_EQ(em.ed2p, em.edp * sweep[0].measurement.seconds);
}

TEST(Report, OptimalCapsFindTheRightExtremes) {
  const auto sweep = sampleSweep();
  const OptimalCaps best = optimalCaps(sweep);
  // The sample kernel is compute bound: fastest at the default cap.
  EXPECT_EQ(best.minTimeCap, 120.0);
  // Deep caps save energy on compute kernels (voltage scaling beats
  // the runtime stretch for this one).
  EXPECT_LT(best.minEnergyCap, 120.0);
  // EDP sits between the two criteria.
  EXPECT_GE(best.minEdpCap, best.minEnergyCap);
  EXPECT_THROW(optimalCaps({}), Error);
}

}  // namespace
}  // namespace pviz::core
