// Simulated MSR file and RAPL domain tests.
#include <gtest/gtest.h>

#include "power/rapl.h"

namespace pviz::power {
namespace {

TEST(MsrFile, AllowlistGatesAccess) {
  MsrFile msr;
  EXPECT_TRUE(msr.isAllowed(kMsrPkgEnergyStatus));
  EXPECT_FALSE(msr.isAllowed(0x1234));
  EXPECT_THROW(msr.read(0x1234), MsrAccessError);
  EXPECT_THROW(msr.write(0x1234, 1), MsrAccessError);
  // The file holds only the allowlisted registers, so even raw access
  // (the silicon side) cannot store one off the list.
  EXPECT_THROW(msr.rawWrite(0x1234, 7), MsrAccessError);
  EXPECT_EQ(msr.rawRead(0x1234), 0u);
}

TEST(MsrFile, ReadsBackWrites) {
  MsrFile msr;
  msr.write(kMsrPkgPowerLimit, 0xDEADBEEF);
  EXPECT_EQ(msr.read(kMsrPkgPowerLimit), 0xDEADBEEFu);
  EXPECT_EQ(msr.rawRead(0x9999), 0u);  // unset registers read as zero
}

TEST(Rapl, UnitsDecodeToBroadwellValues) {
  MsrFile msr;
  RaplDomain rapl(msr);
  EXPECT_DOUBLE_EQ(rapl.powerUnitWatts(), 0.125);
  EXPECT_NEAR(rapl.energyUnitJoules(), 6.103515625e-05, 1e-12);
}

TEST(Rapl, PowerCapEncodeDecodeRoundTrip) {
  MsrFile msr;
  RaplDomain rapl(msr);
  EXPECT_FALSE(rapl.capEnabled());
  EXPECT_EQ(rapl.powerCapWatts(), 0.0);
  rapl.setPowerCapWatts(90.0);
  EXPECT_TRUE(rapl.capEnabled());
  EXPECT_DOUBLE_EQ(rapl.powerCapWatts(), 90.0);
  // Values round to the 0.125 W unit.
  rapl.setPowerCapWatts(90.06);
  EXPECT_DOUBLE_EQ(rapl.powerCapWatts(), 90.0);
  rapl.setPowerCapWatts(90.07);
  EXPECT_DOUBLE_EQ(rapl.powerCapWatts(), 90.125);
  rapl.disableCap();
  EXPECT_FALSE(rapl.capEnabled());
  EXPECT_EQ(rapl.powerCapWatts(), 0.0);
  EXPECT_THROW(rapl.setPowerCapWatts(0.0), Error);
}

TEST(Rapl, TimeUnitDecodesToBroadwellValue) {
  MsrFile msr;
  RaplDomain rapl(msr);
  EXPECT_NEAR(rapl.timeUnitSeconds(), 1.0 / 1024.0, 1e-12);
}

TEST(Rapl, TimeWindowEncodeDecodeRoundsDown) {
  MsrFile msr;
  RaplDomain rapl(msr);
  EXPECT_EQ(rapl.timeWindowSeconds(), 0.0);  // never programmed
  rapl.setTimeWindowSeconds(0.010);  // 10 ms
  const double w = rapl.timeWindowSeconds();
  EXPECT_LE(w, 0.010 + 1e-12);
  EXPECT_GT(w, 0.007);  // representable value just below
  // 2^Y*(1+Z/4) granularity: exact powers of two encode exactly.
  rapl.setTimeWindowSeconds(64.0 / 1024.0);
  EXPECT_NEAR(rapl.timeWindowSeconds(), 64.0 / 1024.0, 1e-12);
  EXPECT_THROW(rapl.setTimeWindowSeconds(0.0), Error);
  EXPECT_THROW(rapl.setTimeWindowSeconds(1e-6), Error);  // below the unit
}

TEST(Rapl, TimeWindowAndPowerCapCoexist) {
  MsrFile msr;
  RaplDomain rapl(msr);
  rapl.setPowerCapWatts(75.0);
  rapl.setTimeWindowSeconds(0.046875);  // 48 units = 2^5 * 1.5
  EXPECT_DOUBLE_EQ(rapl.powerCapWatts(), 75.0);
  EXPECT_NEAR(rapl.timeWindowSeconds(), 0.046875, 1e-12);
  // Re-programming the cap must preserve the window and vice versa.
  rapl.setPowerCapWatts(60.0);
  EXPECT_NEAR(rapl.timeWindowSeconds(), 0.046875, 1e-12);
  rapl.setTimeWindowSeconds(0.1);
  EXPECT_DOUBLE_EQ(rapl.powerCapWatts(), 60.0);
}

TEST(Rapl, EnergyDepositsAccumulate) {
  MsrFile msr;
  RaplDomain rapl(msr);
  const double before = rapl.readEnergyCounterJoules();
  rapl.depositEnergy(12.5);
  rapl.depositEnergy(7.5);
  const double after = rapl.readEnergyCounterJoules();
  EXPECT_NEAR(rapl.energyDeltaJoules(before, after), 20.0, 1e-3);
  EXPECT_THROW(rapl.depositEnergy(-1.0), Error);
}

TEST(Rapl, SubUnitDepositsAreNotLost) {
  MsrFile msr;
  RaplDomain rapl(msr);
  const double before = rapl.readEnergyCounterJoules();
  // Each deposit is below the 61 uJ energy unit; the remainder carry
  // must preserve the total.
  for (int i = 0; i < 100000; ++i) rapl.depositEnergy(1e-5);
  const double after = rapl.readEnergyCounterJoules();
  EXPECT_NEAR(rapl.energyDeltaJoules(before, after), 1.0, 1e-3);
}

TEST(Rapl, EnergyCounterWrapsLikeHardware) {
  MsrFile msr;
  RaplDomain rapl(msr);
  // 32-bit counter at ~61 uJ/tick wraps at ~262 kJ.
  const double wrapJoules = 4294967296.0 * rapl.energyUnitJoules();
  const double before = rapl.readEnergyCounterJoules();
  rapl.depositEnergy(wrapJoules - 10.0);
  const double nearWrap = rapl.readEnergyCounterJoules();
  EXPECT_NEAR(rapl.energyDeltaJoules(before, nearWrap), wrapJoules - 10.0,
              1e-2);
  rapl.depositEnergy(25.0);  // crosses the wrap
  const double wrapped = rapl.readEnergyCounterJoules();
  EXPECT_LT(wrapped, nearWrap);  // raw counter went backwards
  EXPECT_NEAR(rapl.energyDeltaJoules(nearWrap, wrapped), 25.0, 1e-2);
}

TEST(Rapl, FrequencyCountersMeasureEffectiveGhz) {
  MsrFile msr;
  RaplDomain rapl(msr);
  const auto s0 = rapl.readFrequencyCounters();
  rapl.tickFrequencyCounters(0.5, 1.3, 2.1);  // half a second at 1.3 GHz
  const auto s1 = rapl.readFrequencyCounters();
  EXPECT_NEAR(RaplDomain::effectiveGhz(s0, s1, 2.1), 1.3, 1e-6);
  // Mixed-frequency interval averages by time.
  rapl.tickFrequencyCounters(0.5, 2.5, 2.1);
  const auto s2 = rapl.readFrequencyCounters();
  EXPECT_NEAR(RaplDomain::effectiveGhz(s0, s2, 2.1), 1.9, 1e-6);
  EXPECT_NEAR(RaplDomain::effectiveGhz(s1, s2, 2.1), 2.5, 1e-6);
}

TEST(Rapl, EffectiveGhzZeroWhenNoTime) {
  MsrFile msr;
  RaplDomain rapl(msr);
  const auto s = rapl.readFrequencyCounters();
  EXPECT_EQ(RaplDomain::effectiveGhz(s, s, 2.1), 0.0);
}

}  // namespace
}  // namespace pviz::power
