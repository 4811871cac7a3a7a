// Unit tests for the electrical interconnect baselines.
#include <gtest/gtest.h>

#include "oci/electrical/capacitive.hpp"
#include "oci/electrical/inductive.hpp"
#include "oci/electrical/interconnect.hpp"
#include "oci/electrical/pad.hpp"

namespace {

using namespace oci::electrical;
using oci::util::Capacitance;
using oci::util::Current;
using oci::util::Energy;
using oci::util::Inductance;
using oci::util::Length;
using oci::util::Time;
using oci::util::Voltage;

// ---------- wire-bond pad ----------

TEST(WireBondPad, EnergyPerBitIsAlphaCV2) {
  WireBondPadParams p;
  p.pad_capacitance = Capacitance::picofarads(2.0);
  p.swing = Voltage::volts(1.2);
  p.activity_factor = 0.5;
  const WireBondPad pad(p);
  EXPECT_NEAR(pad.energy_per_bit().picojoules(), 0.5 * 2.0 * 1.44, 1e-9);
}

TEST(WireBondPad, TransitionTimeRespectsBothLimits) {
  WireBondPadParams p;
  const WireBondPad pad(p);
  const double t_charge = p.pad_capacitance.farads() * p.swing.volts() / p.max_drive.amperes();
  EXPECT_GE(pad.min_transition_time().seconds(), t_charge);
  // LC quarter period with 3 nH / 2 pF ~ 121 ps.
  EXPECT_GE(pad.min_transition_time().picoseconds(), 120.0);
}

TEST(WireBondPad, MaxBitRateBelowLCLimit) {
  const WireBondPad pad(WireBondPadParams{});
  // 2 pF pad on a 3 nH bond wire cannot do 10 Gb/s NRZ.
  EXPECT_LT(pad.max_bit_rate().gigabits_per_second(), 10.0);
  EXPECT_GT(pad.max_bit_rate().megabits_per_second(), 100.0);
}

TEST(WireBondPad, MoreInductanceSlowsLink) {
  WireBondPadParams slow;
  slow.bond_inductance = Inductance::nanohenries(6.0);
  WireBondPadParams fast;
  fast.bond_inductance = Inductance::nanohenries(1.0);
  EXPECT_LT(WireBondPad(slow).max_bit_rate().bits_per_second(),
            WireBondPad(fast).max_bit_rate().bits_per_second());
}

TEST(WireBondPad, FiguresPopulated) {
  const LinkFigures f = WireBondPad(WireBondPadParams{}).figures();
  EXPECT_EQ(f.name, "wire-bond pad");
  EXPECT_FALSE(f.broadcast_capable);
  EXPECT_EQ(f.max_fanout, 1u);
  EXPECT_GT(f.energy_per_bit.picojoules(), 0.0);
  EXPECT_GT(bandwidth_density_bps_per_mm2(f), 0.0);
}

TEST(WireBondPad, RejectsBadParams) {
  WireBondPadParams p;
  p.pad_capacitance = Capacitance::farads(0.0);
  EXPECT_THROW(WireBondPad{p}, std::invalid_argument);
  p = WireBondPadParams{};
  p.activity_factor = 1.5;
  EXPECT_THROW(WireBondPad{p}, std::invalid_argument);
  p = WireBondPadParams{};
  p.max_drive = Current::amperes(0.0);
  EXPECT_THROW(WireBondPad{p}, std::invalid_argument);
}

// ---------- inductive ----------

TEST(InductiveLink, CouplingSaturatesNearAndDecaysCubed) {
  InductiveLinkParams p;
  p.coil_diameter = Length::micrometres(100.0);
  const InductiveLink link(p);
  EXPECT_DOUBLE_EQ(link.coupling_at(Length::micrometres(50.0)), p.k_at_diameter);
  const double k1 = link.coupling_at(Length::micrometres(100.0));
  const double k2 = link.coupling_at(Length::micrometres(200.0));
  EXPECT_NEAR(k2 / k1, 1.0 / 8.0, 1e-9);  // (D/2D)^3
}

TEST(InductiveLink, FeasibilityAtConfiguredSeparation) {
  InductiveLinkParams p;
  p.separation = Length::micrometres(60.0);
  EXPECT_TRUE(InductiveLink(p).link_feasible());
  p.separation = Length::micrometres(500.0);
  EXPECT_FALSE(InductiveLink(p).link_feasible());
}

TEST(InductiveLink, PairOnlyAndEnergySum) {
  const LinkFigures f = InductiveLink(InductiveLinkParams{}).figures();
  EXPECT_FALSE(f.broadcast_capable);
  EXPECT_EQ(f.max_fanout, 1u);
  EXPECT_NEAR(f.energy_per_bit.picojoules(), 3.0, 1e-9);  // 1.5 + 1.5 pJ
}

TEST(InductiveLink, InfeasibleGeometryZeroRate) {
  InductiveLinkParams p;
  p.separation = Length::micrometres(1000.0);
  EXPECT_DOUBLE_EQ(InductiveLink(p).figures().max_bit_rate.bits_per_second(), 0.0);
}

TEST(InductiveLink, RejectsBadParams) {
  InductiveLinkParams p;
  p.coil_diameter = Length::metres(0.0);
  EXPECT_THROW(InductiveLink{p}, std::invalid_argument);
  p = InductiveLinkParams{};
  p.k_at_diameter = 1.5;
  EXPECT_THROW(InductiveLink{p}, std::invalid_argument);
}

// ---------- capacitive ----------

TEST(CapacitiveLink, ParallelPlateFormula) {
  CapacitiveLinkParams p;
  p.plate_side = Length::micrometres(20.0);
  p.gap = Length::micrometres(1.0);
  const CapacitiveLink link(p);
  // C = e0 * A / d = 8.854e-12 * 400e-12 / 1e-6 ~ 3.54 fF.
  EXPECT_NEAR(link.coupling_capacitance().femtofarads(), 3.54, 0.05);
}

TEST(CapacitiveLink, CouplingInverseWithGap) {
  const CapacitiveLink link(CapacitiveLinkParams{});
  const double c1 = link.coupling_at(Length::micrometres(1.0)).farads();
  const double c2 = link.coupling_at(Length::micrometres(2.0)).farads();
  EXPECT_NEAR(c1 / c2, 2.0, 1e-9);
}

TEST(CapacitiveLink, FeasibleAtMicronGapOnly) {
  CapacitiveLinkParams p;
  EXPECT_TRUE(CapacitiveLink(p).link_feasible());
  p.gap = Length::micrometres(10.0);
  EXPECT_FALSE(CapacitiveLink(p).link_feasible());
}

TEST(CapacitiveLink, SubPicojoulePerBit) {
  const CapacitiveLink link(CapacitiveLinkParams{});
  EXPECT_LT(link.energy_per_bit().picojoules(), 1.0);  // Drost-class efficiency
  EXPECT_GT(link.energy_per_bit().femtojoules(), 10.0);
}

TEST(CapacitiveLink, PairOnly) {
  const LinkFigures f = CapacitiveLink(CapacitiveLinkParams{}).figures();
  EXPECT_FALSE(f.broadcast_capable);
  EXPECT_EQ(f.max_fanout, 1u);
}

TEST(CapacitiveLink, RejectsBadParams) {
  CapacitiveLinkParams p;
  p.gap = Length::metres(0.0);
  EXPECT_THROW(CapacitiveLink{p}, std::invalid_argument);
  p = CapacitiveLinkParams{};
  p.relative_permittivity = 0.5;
  EXPECT_THROW(CapacitiveLink{p}, std::invalid_argument);
}

// ---------- cross-baseline sanity ----------

TEST(Baselines, PadIsTheEnergyHog) {
  const auto pad = WireBondPad(WireBondPadParams{}).figures();
  const auto ind = InductiveLink(InductiveLinkParams{}).figures();
  const auto cap = CapacitiveLink(CapacitiveLinkParams{}).figures();
  // Proximity < inductive < pad in energy/bit, the literature ordering.
  EXPECT_LT(cap.energy_per_bit.joules(), ind.energy_per_bit.joules());
  EXPECT_LT(ind.energy_per_bit.joules(), pad.energy_per_bit.joules() * 10.0);
  // None of the electrical options can broadcast.
  EXPECT_FALSE(pad.broadcast_capable || ind.broadcast_capable || cap.broadcast_capable);
}

}  // namespace
