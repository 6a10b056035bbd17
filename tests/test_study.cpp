// Study driver and profile-cache tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "golden_digest.h"
#include "util/backend.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace pviz::core {
namespace {

StudyConfig smallConfig() {
  StudyConfig config;
  config.sizes = {8, 12};
  config.capsWatts = {120, 80, 40};
  config.cycles = 2;
  config.params = AlgorithmParams::lightRendering();
  config.params.seedCount = 50;
  config.params.maxSteps = 50;
  return config;
}

TEST(Study, ValidatesConfiguration) {
  StudyConfig bad = smallConfig();
  bad.capsWatts.clear();
  EXPECT_THROW(Study{bad}, Error);
  bad = smallConfig();
  bad.sizes.clear();
  EXPECT_THROW(Study{bad}, Error);
  bad = smallConfig();
  bad.cycles = 0;
  EXPECT_THROW(Study{bad}, Error);
}

TEST(Study, DatasetIsMemoized) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const vis::UniformGrid& a = study.dataset(ctx, 8);
  const vis::UniformGrid& b = study.dataset(ctx, 8);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.numCells(), 8 * 8 * 8);
  // Only the build runs under a "dataset" phase; the hit opens none.
  ASSERT_EQ(ctx.tracer().phases().size(), 1u);
  EXPECT_EQ(ctx.tracer().phases()[0].name, "dataset");
}

TEST(Study, CancelledDatasetBuildLeavesNoEntry) {
  Study study(smallConfig());
  util::ThreadPool pool(2);
  util::ExecutionContext cancelled(pool);
  cancelled.cancel().cancelAfterPolls(3);
  EXPECT_THROW(study.dataset(cancelled, 32), util::CancelledError);
  ASSERT_EQ(cancelled.tracer().phases().size(), 1u);
  EXPECT_TRUE(cancelled.tracer().phases()[0].cancelled);

  // The next call builds the whole dataset: the golden digest of
  // makeCloverField at n = 32 (test_kernel_golden.cpp).
  util::ExecutionContext ctx(pool);
  ctx.setBackend(exec::BackendKind::Serial);
  const vis::UniformGrid& g = study.dataset(ctx, 32);
  pviz::testing::Fnv1a64 h;
  h.add(g.field("energy").data());
  h.add(g.field("velocity").data());
  EXPECT_EQ(h.hex(), "75c6220a164b3b92");
}

// Every field of two measurements, compared bit for bit.
void expectSameMeasurement(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.energyJoules, b.energyJoules);
  EXPECT_EQ(a.averageWatts, b.averageWatts);
  EXPECT_EQ(a.meteredWatts, b.meteredWatts);
  EXPECT_EQ(a.effectiveGhz, b.effectiveGhz);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.llcMissRate, b.llcMissRate);
  EXPECT_EQ(a.elementsPerSecond, b.elementsPerSecond);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].name, b.phases[i].name);
    EXPECT_EQ(a.phases[i].seconds, b.phases[i].seconds);
    EXPECT_EQ(a.phases[i].averageWatts, b.phases[i].averageWatts);
    EXPECT_EQ(a.phases[i].averageGhz, b.phases[i].averageGhz);
    EXPECT_EQ(a.phases[i].instructions, b.phases[i].instructions);
    EXPECT_EQ(a.phases[i].llcMisses, b.phases[i].llcMisses);
    EXPECT_EQ(a.phases[i].llcReferences, b.phases[i].llcReferences);
  }
  ASSERT_EQ(a.powerTrace.size(), b.powerTrace.size());
  for (std::size_t i = 0; i < a.powerTrace.size(); ++i) {
    EXPECT_EQ(a.powerTrace[i].timeSeconds, b.powerTrace[i].timeSeconds);
    EXPECT_EQ(a.powerTrace[i].watts, b.powerTrace[i].watts);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].timeSeconds, b.timeline[i].timeSeconds);
    EXPECT_EQ(a.timeline[i].watts, b.timeline[i].watts);
    EXPECT_EQ(a.timeline[i].joules, b.timeline[i].joules);
    EXPECT_EQ(a.timeline[i].phase, b.timeline[i].phase);
  }
}

void expectSameRecords(const std::vector<ConfigRecord>& a,
                       const std::vector<ConfigRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].capWatts, b[i].capWatts);
    expectSameMeasurement(a[i].measurement, b[i].measurement);
    EXPECT_EQ(a[i].ratios.pRatio, b[i].ratios.pRatio);
    EXPECT_EQ(a[i].ratios.tRatio, b[i].ratios.tRatio);
    EXPECT_EQ(a[i].ratios.fRatio, b[i].ratios.fRatio);
  }
}

const std::vector<double> kPaperCaps = {120, 110, 100, 90, 80,
                                        70,  60,  50,  40};

/// capSweep of contour at 8^3 over the paper's caps, on an explicit pool
/// of `workers` participants and an explicit backend.
std::vector<ConfigRecord> sweepOn(Study& study, unsigned workers,
                                  exec::BackendKind backend) {
  util::ThreadPool pool(workers);
  util::ExecutionContext ctx(pool);
  ctx.setBackend(backend);
  return study.capSweep(ctx, Algorithm::Contour, 8, kPaperCaps, 2);
}

TEST(Study, CharacterizationIsMemoized) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const AlgorithmParams& params = study.config().params;
  const vis::KernelProfile& a =
      study.characterize(ctx, Algorithm::Threshold, 8, params);
  const vis::KernelProfile& b =
      study.characterize(ctx, Algorithm::Threshold, 8, params);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.kernel, "threshold");
}

TEST(Study, OverrideCharacterizationIsMemoized) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  AlgorithmParams blocks = study.config().params;
  blocks.blockCount += 1;  // 2 unless POWERVIZ_BLOCKS moved the default
  const vis::KernelProfile& a =
      study.characterize(ctx, Algorithm::Contour, 8, blocks);
  const vis::KernelProfile& b =
      study.characterize(ctx, Algorithm::Contour, 8, blocks);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &study.characterize(ctx, Algorithm::Contour, 8,
                                    study.config().params));
}

// A memo hit returns before any kernel runs, so it never polls the
// cancel token: under a cancelled context a hit succeeds and a miss
// throws.
TEST(Study, MemoIsKeyedOnTheProfileRelevantParams) {
  Study study(smallConfig());
  const AlgorithmParams& params = study.config().params;
  util::ExecutionContext ctx;
  util::ExecutionContext cancelled;
  cancelled.cancel().cancel();

  // The configured params share one entry with the cap-sweep path.
  study.capSweep(ctx, Algorithm::Contour, 8, {120.0}, 1);
  EXPECT_NO_THROW(study.characterize(cancelled, Algorithm::Contour, 8, params));

  // A decomposition or a threshold band changes the profile and must
  // not share an entry.
  AlgorithmParams blocks = params;
  blocks.blockCount += 1;
  EXPECT_THROW(study.characterize(cancelled, Algorithm::Contour, 8, blocks),
               util::CancelledError);
  AlgorithmParams band = params;
  band.thresholdLoFraction = 0.5;
  study.characterize(ctx, Algorithm::Threshold, 8, params);
  EXPECT_THROW(study.characterize(cancelled, Algorithm::Threshold, 8, band),
               util::CancelledError);
}

TEST(Study, ConcurrentOverrideRequestsShareOneCharacterization) {
  Study study(smallConfig());
  AlgorithmParams blocks = study.config().params;
  blocks.blockCount += 1;  // 2 unless POWERVIZ_BLOCKS moved the default
  const vis::KernelProfile* seen[4] = {};
  std::vector<std::thread> threads;
  for (auto& slot : seen) {
    threads.emplace_back([&study, &blocks, &slot] {
      util::ExecutionContext ctx;
      slot = &study.characterize(ctx, Algorithm::Contour, 12, blocks);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const vis::KernelProfile* p : seen) EXPECT_EQ(p, seen[0]);
}

TEST(Study, CapSweepRatiosAreBaselinedAtTheDefaultCap) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const auto sweep = study.capSweep(ctx, Algorithm::Threshold, 8,
                                    study.config().capsWatts,
                                    study.config().cycles);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.pRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.tRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[0].ratios.fRatio, 1.0);
  EXPECT_DOUBLE_EQ(sweep[1].ratios.pRatio, 1.5);
  EXPECT_DOUBLE_EQ(sweep[2].ratios.pRatio, 3.0);
  for (const auto& record : sweep) {
    EXPECT_EQ(record.algorithm, Algorithm::Threshold);
    EXPECT_EQ(record.size, 8);
    EXPECT_GT(record.measurement.seconds, 0.0);
  }
}

TEST(Study, CyclesMultiplyMeasuredTime) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const double ta =
      study.capSweep(ctx, Algorithm::Contour, 8, {120.0}, 1)[0]
          .measurement.seconds;
  const double tb =
      study.capSweep(ctx, Algorithm::Contour, 8, {120.0}, 4)[0]
          .measurement.seconds;
  EXPECT_NEAR(tb / ta, 4.0, 0.2);
}

TEST(Study, OneCapSweepEqualsTheFullSweepsFirstRecord) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const StudyConfig& config = study.config();
  const auto full = study.capSweep(ctx, Algorithm::Contour, 8,
                                   config.capsWatts, config.cycles);
  const auto one = study.capSweep(ctx, Algorithm::Contour, 8,
                                  {config.capsWatts.front()}, config.cycles);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].capWatts, full[0].capWatts);
  expectSameMeasurement(one[0].measurement, full[0].measurement);
  EXPECT_EQ(one[0].ratios.pRatio, full[0].ratios.pRatio);
  EXPECT_EQ(one[0].ratios.tRatio, full[0].ratios.tRatio);
  EXPECT_EQ(one[0].ratios.fRatio, full[0].ratios.fRatio);
}

// The caps run in parallel into their own slots, so every backend and
// pool size yields the same records bit for bit, and each record is the
// simulator's run of its cap alone.
TEST(Study, ParallelCapSweepIsBitIdenticalOnEveryBackendAndPool) {
  Study study(smallConfig());
  const std::vector<ConfigRecord> reference =
      sweepOn(study, 1, exec::BackendKind::Serial);
  ASSERT_EQ(reference.size(), kPaperCaps.size());

  const StudyConfig& config = study.config();
  util::ExecutionContext ctx;
  const vis::KernelProfile kernel = repeatKernel(
      scaleKernelWork(
          study.characterize(ctx, Algorithm::Contour, 8, config.params),
          config.workScale),
      2);
  const ExecutionSimulator simulator(config.machine, config.simulator);
  for (std::size_t i = 0; i < kPaperCaps.size(); ++i) {
    SCOPED_TRACE("cap " + std::to_string(kPaperCaps[i]));
    EXPECT_EQ(reference[i].capWatts, kPaperCaps[i]);
    expectSameMeasurement(reference[i].measurement,
                          simulator.run(kernel, kPaperCaps[i]));
  }

  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("threaded, workers=" + std::to_string(workers));
    expectSameRecords(reference,
                      sweepOn(study, workers, exec::BackendKind::Threaded));
  }
}

// The profile is memoized first, so the cancellation is seen by the
// parallel model region itself; a later uncancelled sweep is unharmed.
TEST(Study, CancelledCapSweepThrowsAndTheNextSweepMatches) {
  Study study(smallConfig());
  const std::vector<ConfigRecord> reference =
      sweepOn(study, 1, exec::BackendKind::Serial);

  util::ThreadPool pool(4);
  util::ExecutionContext cancelled(pool);
  cancelled.setBackend(exec::BackendKind::Threaded);
  cancelled.cancel().cancel();
  EXPECT_THROW(
      study.capSweep(cancelled, Algorithm::Contour, 8, kPaperCaps, 2),
      util::CancelledError);

  expectSameRecords(reference, sweepOn(study, 4, exec::BackendKind::Threaded));
}

TEST(Study, CapSweepHasOneRecordPerCap) {
  Study study(smallConfig());
  util::ExecutionContext ctx;
  const auto sweep = study.capSweep(ctx, Algorithm::Contour, 12,
                                    study.config().capsWatts,
                                    study.config().cycles);
  EXPECT_EQ(sweep.size(), study.config().capsWatts.size());
}

TEST(Study, MetricsHelpersBehave) {
  Measurement base;
  base.seconds = 10.0;
  base.effectiveGhz = 2.6;
  Measurement capped;
  capped.seconds = 13.0;
  capped.effectiveGhz = 2.0;
  const Ratios r = computeRatios(base, 120.0, capped, 60.0);
  EXPECT_DOUBLE_EQ(r.pRatio, 2.0);
  EXPECT_DOUBLE_EQ(r.tRatio, 1.3);
  EXPECT_DOUBLE_EQ(r.fRatio, 1.3);
  EXPECT_EQ(firstSlowdownIndex({1.0, 1.05, 1.12, 1.3}), 2);
  EXPECT_EQ(firstSlowdownIndex({1.0, 1.01}), -1);
  EXPECT_EQ(firstSlowdownIndex({}), -1);
  EXPECT_EQ(firstSlowdownIndex({1.2}), 0);
}

TEST(ProfileCache, SaveLoadRoundTrip) {
  std::map<std::string, vis::KernelProfile> entries;
  vis::KernelProfile p;
  p.kernel = "contour";
  p.elements = 12345;
  vis::WorkProfile& phase = p.addPhase("mc-classify");
  phase.flops = 1.5e9;
  phase.intOps = 2.5e9;
  phase.memOps = 0.5e9;
  phase.bytesStreamed = 3e9;
  phase.bytesReused = 1e9;
  phase.irregularAccesses = 4e6;
  phase.workingSetBytes = 16777216.0;
  phase.parallelFraction = 0.97;
  phase.overlap = 0.83;
  p.addPhase("mc-generate").flops = 7.0;
  entries["alg0|16|10"] = p;

  const std::string path = "test_profile_cache.txt";
  saveProfileCache(path, entries);
  const auto loaded = loadProfileCache(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 1u);
  const vis::KernelProfile& q = loaded.at("alg0|16|10");
  EXPECT_EQ(q.kernel, "contour");
  EXPECT_EQ(q.elements, 12345);
  ASSERT_EQ(q.phases.size(), 2u);
  EXPECT_EQ(q.phases[0].name, "mc-classify");
  EXPECT_DOUBLE_EQ(q.phases[0].flops, 1.5e9);
  EXPECT_DOUBLE_EQ(q.phases[0].workingSetBytes, 16777216.0);
  EXPECT_DOUBLE_EQ(q.phases[0].overlap, 0.83);
  EXPECT_DOUBLE_EQ(q.phases[1].flops, 7.0);
}

TEST(ProfileCache, MissingFileIsEmpty) {
  EXPECT_TRUE(loadProfileCache("definitely_not_here_12345.txt").empty());
}

TEST(ProfileCache, StudyUsesTheCacheAcrossInstances) {
  const std::string path = "test_study_cache.txt";
  std::remove(path.c_str());
  StudyConfig config = smallConfig();
  config.cachePath = path;
  util::ExecutionContext ctx;
  {
    Study study(config);
    study.characterize(ctx, Algorithm::Threshold, 8, config.params);
  }
  // A fresh study loads the characterization from disk (same key).
  Study study2(config);
  const vis::KernelProfile& p =
      study2.characterize(ctx, Algorithm::Threshold, 8, config.params);
  EXPECT_EQ(p.kernel, "threshold");
  EXPECT_EQ(p.elements, 8 * 8 * 8);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pviz::core
