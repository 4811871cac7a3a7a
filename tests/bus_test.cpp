// Unit tests for the vertical optical bus, TDMA arbitration, and clock
// distribution.
#include <gtest/gtest.h>

#include "oci/bus/arbitration.hpp"
#include "oci/bus/clock_distribution.hpp"
#include "oci/bus/vertical_bus.hpp"

namespace {

using namespace oci::bus;
using oci::link::TdcDesign;
using oci::util::Frequency;
using oci::util::Power;
using oci::util::RngStream;
using oci::util::Time;
using oci::util::Wavelength;

// ---------- TDMA ----------

TEST(Tdma, EqualScheduleRoundRobin) {
  const TdmaSchedule s = TdmaSchedule::equal(4);
  EXPECT_EQ(s.participants(), 4u);
  EXPECT_EQ(s.cycle_slots(), 4u);
  for (std::uint64_t slot = 0; slot < 12; ++slot) {
    EXPECT_EQ(s.owner(slot), slot % 4);
  }
}

TEST(Tdma, WeightedOwnership) {
  const TdmaSchedule s({2, 1, 3});
  EXPECT_EQ(s.cycle_slots(), 6u);
  EXPECT_EQ(s.owner(0), 0u);
  EXPECT_EQ(s.owner(1), 0u);
  EXPECT_EQ(s.owner(2), 1u);
  EXPECT_EQ(s.owner(3), 2u);
  EXPECT_EQ(s.owner(5), 2u);
  EXPECT_EQ(s.owner(6), 0u);  // wraps
}

TEST(Tdma, NextSlotFromAnyPosition) {
  const TdmaSchedule s({2, 1, 3});
  // Participant 1 owns slot 2 within each 6-slot cycle.
  EXPECT_EQ(s.next_slot(1, 0), 2u);
  EXPECT_EQ(s.next_slot(1, 2), 2u);
  EXPECT_EQ(s.next_slot(1, 3), 8u);
  EXPECT_EQ(s.next_slot(0, 1), 1u);
  EXPECT_EQ(s.next_slot(0, 2), 6u);
}

TEST(Tdma, NextSlotIsAlwaysOwned) {
  const TdmaSchedule s({3, 2, 1, 4});
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::uint64_t from = 0; from < 30; ++from) {
      const auto slot = s.next_slot(p, from);
      EXPECT_GE(slot, from);
      EXPECT_EQ(s.owner(slot), p);
    }
  }
}

TEST(Tdma, RejectsBadWeights) {
  EXPECT_THROW(TdmaSchedule({}), std::invalid_argument);
  EXPECT_THROW(TdmaSchedule({1, 0, 2}), std::invalid_argument);
  const TdmaSchedule s({1, 1});
  EXPECT_THROW((void)s.next_slot(5, 0), std::out_of_range);
}

// ---------- vertical bus ----------

VerticalBusConfig bus_config(std::size_t dies = 8) {
  VerticalBusConfig c;
  c.dies = dies;
  c.master = 0;
  c.design = TdcDesign{64, 4, oci::util::Time::picoseconds(52.0)};
  c.led.peak_power = oci::util::Power::microwatts(200.0);
  // NIR wavelength travels much farther through thinned silicon.
  c.led.wavelength = Wavelength::nanometres(850.0);
  return c;
}

TEST(VerticalBus, ReportsCoverAllDies) {
  const VerticalBus bus(bus_config());
  const auto reports = bus.downstream_reports();
  ASSERT_EQ(reports.size(), 8u);
  EXPECT_TRUE(reports[0].serviceable);  // master
  // Transmittance monotonically decreases with distance from master.
  for (std::size_t i = 2; i < reports.size(); ++i) {
    EXPECT_LE(reports[i].transmittance, reports[i - 1].transmittance);
  }
}

TEST(VerticalBus, ServiceableCountsExcludeMaster) {
  const VerticalBus bus(bus_config());
  EXPECT_LE(bus.serviceable_dies(), 7u);
}

TEST(VerticalBus, NearDiesServiceable) {
  const VerticalBus bus(bus_config(4));
  const auto reports = bus.downstream_reports();
  EXPECT_TRUE(reports[1].serviceable);  // adjacent die sees ~85% coupling
}

TEST(VerticalBus, AggregateGoodputScalesWithFanout) {
  const VerticalBus bus(bus_config());
  const double per_die = bus.broadcast_goodput_per_die().bits_per_second();
  EXPECT_NEAR(bus.aggregate_broadcast_goodput().bits_per_second(),
              per_die * static_cast<double>(bus.serviceable_dies()), 1.0);
}

TEST(VerticalBus, UpstreamSharesChannel) {
  const VerticalBus bus(bus_config(8));
  EXPECT_NEAR(bus.upstream_rate_per_die().bits_per_second(),
              bus.broadcast_goodput_per_die().bits_per_second() / 7.0, 1.0);
}

TEST(VerticalBus, BroadcastAmortisesEnergy) {
  const VerticalBus bus(bus_config());
  if (bus.serviceable_dies() >= 2) {
    const oci::photonics::MicroLed led(bus.config().led);
    const double per_pulse = led.electrical_pulse_energy().joules();
    const double bits = oci::link::bits_per_sample(bus.config().design);
    EXPECT_LT(bus.broadcast_energy_per_delivered_bit().joules(), per_pulse / bits);
  }
}

TEST(VerticalBus, RejectsBadConfig) {
  auto c = bus_config();
  c.master = 9;
  EXPECT_THROW(VerticalBus{c}, std::invalid_argument);
  c = bus_config(1);
  EXPECT_THROW(VerticalBus{c}, std::invalid_argument);
}

// ---------- optical clock tree ----------

OpticalClockConfig clock_config() {
  OpticalClockConfig c;
  c.dies = 6;
  c.clock = Frequency::megahertz(200.0);
  c.led.peak_power = Power::microwatts(200.0);
  c.led.wavelength = Wavelength::nanometres(850.0);
  return c;
}

TEST(OpticalClock, SkewIsPicosecondScale) {
  const OpticalClockTree tree(clock_config());
  // Optical flight through < 300 um of silicon: well under 10 ps.
  EXPECT_LT(tree.max_skew().picoseconds(), 10.0);
  EXPECT_GT(tree.max_skew().picoseconds(), 0.0);
}

TEST(OpticalClock, ReportsMasterIsPerfect) {
  const OpticalClockTree tree(clock_config());
  const auto reports = tree.reports();
  EXPECT_DOUBLE_EQ(reports[0].path_skew.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(reports[0].edge_detection_probability, 1.0);
}

TEST(OpticalClock, JitterGrowsWithDistance) {
  const OpticalClockTree tree(clock_config());
  const auto reports = tree.reports();
  // Farther dies see fewer photons -> larger first-photon spread.
  EXPECT_GE(reports[5].jitter_rms.seconds(), reports[1].jitter_rms.seconds());
}

TEST(OpticalClock, PowerBudget) {
  const OpticalClockTree tree(clock_config());
  EXPECT_GT(tree.master_power().watts(), 0.0);
  EXPECT_GT(tree.total_power().watts(), tree.master_power().watts());
}

TEST(OpticalClock, MeasuredJitterFiniteAndSmall) {
  const OpticalClockTree tree(clock_config());
  RngStream rng(443);
  const Time j = tree.measured_edge_jitter(1, 2000, rng);
  EXPECT_GT(j.picoseconds(), 0.0);
  EXPECT_LT(j.picoseconds(), 500.0);
}

TEST(OpticalClock, MasterHasNoJitter) {
  const OpticalClockTree tree(clock_config());
  RngStream rng(449);
  EXPECT_DOUBLE_EQ(tree.measured_edge_jitter(0, 100, rng).seconds(), 0.0);
}

TEST(ElectricalClock, PowerAndSkewModels) {
  ElectricalClockTree tree{ElectricalClockTreeParams{}};
  // 6 levels x 20 pF x 1.44 V^2 x 200 MHz ~ 34.6 mW.
  EXPECT_NEAR(tree.power().milliwatts(), 6 * 20e-12 * 1.44 * 200e6 * 1e3, 0.1);
  EXPECT_GT(tree.skew_3sigma().picoseconds(), 10.0);
  EXPECT_DOUBLE_EQ(tree.insertion_delay().picoseconds(), 360.0);
}

TEST(ClockComparison, OpticalBeatsElectricalOnPower) {
  const OpticalClockTree optical(clock_config());
  ElectricalClockTree electrical{ElectricalClockTreeParams{}};
  // The paper's motivation: optical clock distribution drastically
  // reduces distribution power.
  EXPECT_LT(optical.total_power().watts(), electrical.power().watts());
}

}  // namespace
