// Tests for the WDM grid/filter model, its crosstalk-matrix invariants,
// and the crosstalk-aware WDM link.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "oci/link/wdm_link.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/photonics/wdm.hpp"
#include "oci/util/random.hpp"

using namespace oci;
using photonics::WdmFilter;
using photonics::WdmGrid;
using util::RngStream;
using util::Time;
using util::Wavelength;

// ---------- grid ----------

TEST(WdmGrid, CentresTheGrid) {
  WdmGrid g;
  g.center = Wavelength::nanometres(850.0);
  g.spacing = Wavelength::nanometres(20.0);
  g.channels = 4;
  EXPECT_DOUBLE_EQ(g.wavelength(0).nanometres(), 820.0);
  EXPECT_DOUBLE_EQ(g.wavelength(1).nanometres(), 840.0);
  EXPECT_DOUBLE_EQ(g.wavelength(2).nanometres(), 860.0);
  EXPECT_DOUBLE_EQ(g.wavelength(3).nanometres(), 880.0);
}

TEST(WdmGrid, OddChannelCountPutsOneOnCenter) {
  WdmGrid g;
  g.center = Wavelength::nanometres(900.0);
  g.spacing = Wavelength::nanometres(30.0);
  g.channels = 3;
  EXPECT_DOUBLE_EQ(g.wavelength(1).nanometres(), 900.0);
}

TEST(WdmGrid, SingleChannelIsTheCenter) {
  WdmGrid g;
  g.channels = 1;
  EXPECT_DOUBLE_EQ(g.wavelength(0).nanometres(), g.center.nanometres());
}

TEST(WdmGrid, RejectsOutOfRange) {
  WdmGrid g;
  g.channels = 4;
  EXPECT_THROW((void)g.wavelength(4), std::out_of_range);
}

// ---------- filter ----------

TEST(WdmFilter, DiagonalIsPassband) {
  WdmFilter f;
  f.passband_transmittance = 0.8;
  EXPECT_DOUBLE_EQ(f.leakage(2, 2), 0.8);
}

TEST(WdmFilter, AdjacentIsolationInDecibels) {
  WdmFilter f;
  f.passband_transmittance = 1.0;
  f.adjacent_isolation_db = 20.0;
  EXPECT_NEAR(f.leakage(1, 2), 0.01, 1e-12);
  EXPECT_NEAR(f.leakage(2, 1), 0.01, 1e-12);
}

TEST(WdmFilter, RolloffAddsPerChannelStep) {
  WdmFilter f;
  f.passband_transmittance = 1.0;
  f.adjacent_isolation_db = 20.0;
  f.rolloff_db_per_channel = 10.0;
  f.isolation_floor_db = 100.0;
  EXPECT_NEAR(f.leakage(0, 2), 1e-3, 1e-12);  // 20 + 10 dB
  EXPECT_NEAR(f.leakage(0, 3), 1e-4, 1e-12);  // 20 + 20 dB
}

TEST(WdmFilter, IsolationFloorClamps) {
  WdmFilter f;
  f.passband_transmittance = 1.0;
  f.adjacent_isolation_db = 20.0;
  f.rolloff_db_per_channel = 15.0;
  f.isolation_floor_db = 30.0;
  // 4 channels away would be 20 + 45 dB; the floor holds it at 30 dB.
  EXPECT_NEAR(f.leakage(0, 4), 1e-3, 1e-12);
}

TEST(WdmFilter, CrosstalkMatrixIsSymmetricWithUniformGrid) {
  WdmGrid g;
  g.channels = 5;
  const auto m = photonics::crosstalk_matrix(g, WdmFilter{});
  ASSERT_EQ(m.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(m[i].size(), 5u);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
  }
}

// ---------- WDM link ----------

link::WdmLinkConfig wdm_config(std::size_t channels, double adjacent_db) {
  link::WdmLinkConfig c;
  c.grid.center = Wavelength::nanometres(850.0);
  c.grid.spacing = Wavelength::nanometres(25.0);
  c.grid.channels = channels;
  c.filter.adjacent_isolation_db = adjacent_db;
  c.base.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.base.bits_per_symbol = 6;
  c.base.led.peak_power = util::Power::microwatts(20.0);
  c.base.spad.jitter_sigma = Time::picoseconds(40.0);
  c.base.spad.dcr_at_ref = util::Frequency::hertz(0.0);
  c.base.spad.afterpulse_probability = 0.0;
  c.base.calibration_samples = 30000;
  c.path_transmittance = 0.3;
  return c;
}

TEST(WdmLink, RejectsBadConfig) {
  RngStream rng(101);
  auto c = wdm_config(2, 25.0);
  c.grid.channels = 0;
  EXPECT_THROW(link::WdmLink(c, rng), std::invalid_argument);
  c = wdm_config(2, 25.0);
  c.path_transmittance = 0.0;
  EXPECT_THROW(link::WdmLink(c, rng), std::invalid_argument);
}

TEST(WdmLink, ChannelsGetDistinctWavelengths) {
  RngStream rng(103);
  const link::WdmLink wdm(wdm_config(4, 25.0), rng);
  std::set<double> wavelengths;
  for (std::size_t i = 0; i < wdm.channels(); ++i) {
    wavelengths.insert(wdm.channel(i).led().params().wavelength.nanometres());
  }
  EXPECT_EQ(wavelengths.size(), 4u);
}

TEST(WdmLink, TransmitValidatesStreamShape) {
  RngStream rng(107);
  const link::WdmLink wdm(wdm_config(2, 25.0), rng);
  RngStream tx(109);
  EXPECT_THROW((void)wdm.transmit({{1, 2, 3}}, tx), std::invalid_argument);
  EXPECT_THROW((void)wdm.transmit({{1, 2}, {1, 2, 3}}, tx), std::invalid_argument);
}

TEST(WdmLink, CleanRoundTripWithHighIsolation) {
  // A 20 uW pulse carries ~3e4 photons, so even 40 dB isolation leaks
  // a fraction of a photon per window; a genuinely clean round trip
  // needs lab-grade isolation well above the default scattering floor.
  auto cfg = wdm_config(4, 60.0);
  cfg.filter.isolation_floor_db = 80.0;
  RngStream rng(113);
  const link::WdmLink wdm(cfg, rng);
  RngStream tx(127);
  const std::vector<std::vector<std::uint64_t>> streams{
      {1, 5, 9, 13}, {2, 6, 10, 14}, {3, 7, 11, 15}, {4, 8, 12, 16}};
  const auto run = wdm.transmit(streams, tx);
  ASSERT_EQ(run.per_channel.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(run.per_channel[i].decoded, streams[i]) << "channel " << i;
    EXPECT_EQ(run.per_channel[i].stats.symbol_errors, 0u);
  }
}

TEST(WdmLink, PoorIsolationCausesNoiseCaptures) {
  // 3 dB adjacent isolation leaks half the neighbour's pulse into the
  // victim; over many random symbols the aggressor regularly fires the
  // victim's SPAD first.
  RngStream rng(131);
  const link::WdmLink leaky(wdm_config(4, 3.0), rng);
  RngStream rng2(131);
  const link::WdmLink tight(wdm_config(4, 40.0), rng2);

  RngStream tx1(137), tx2(137);
  const auto leaky_run = leaky.measure(400, tx1);
  const auto tight_run = tight.measure(400, tx2);

  std::uint64_t leaky_captures = 0, tight_captures = 0;
  for (const auto& r : leaky_run.per_channel) leaky_captures += r.stats.noise_captures;
  for (const auto& r : tight_run.per_channel) tight_captures += r.stats.noise_captures;
  EXPECT_GT(leaky_captures, 50u);
  EXPECT_LT(tight_captures, leaky_captures / 10);
  EXPECT_GT(leaky_run.worst_symbol_error_rate(), tight_run.worst_symbol_error_rate());
}

TEST(WdmLink, AggregateGoodputScalesWithChannels) {
  RngStream rng1(139), rng4(139);
  const link::WdmLink one(wdm_config(1, 30.0), rng1);
  const link::WdmLink four(wdm_config(4, 30.0), rng4);
  RngStream tx1(149), tx4(149);
  const auto run1 = one.measure(200, tx1);
  const auto run4 = four.measure(200, tx4);
  EXPECT_GT(run4.aggregate_goodput().bits_per_second(),
            3.0 * run1.aggregate_goodput().bits_per_second());
}

TEST(WdmLink, StackAbsorptionPenalisesShortWavelengths) {
  // Through two thinned dies the 800 nm channel loses far more than
  // the 900 nm channel: collected fractions must be ordered.
  auto c = wdm_config(3, 30.0);
  c.grid.center = Wavelength::nanometres(850.0);
  c.grid.spacing = Wavelength::nanometres(50.0);
  const auto stack = photonics::DieStack::uniform(4, photonics::DieSpec{});
  c.stack = &stack;
  c.from_die = 0;
  c.to_die = 2;
  RngStream rng(151);
  const link::WdmLink wdm(c, rng);
  EXPECT_LT(wdm.collected_fraction(0, 0), wdm.collected_fraction(1, 1));
  EXPECT_LT(wdm.collected_fraction(1, 1), wdm.collected_fraction(2, 2));
}

// ---------- WDM matrix invariants ----------

class WdmMatrix : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(WdmMatrix, RowInvariants) {
  const auto [channels, isolation_db] = GetParam();
  photonics::WdmGrid grid;
  grid.channels = channels;
  photonics::WdmFilter filter;
  filter.adjacent_isolation_db = isolation_db;
  const auto m = photonics::crosstalk_matrix(grid, filter);

  for (std::size_t i = 0; i < channels; ++i) {
    for (std::size_t j = 0; j < channels; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
      if (i != j) {
        // Off-diagonal leakage is strictly below the passband and
        // monotonically non-increasing with grid distance.
        EXPECT_LT(m[i][j], m[i][i]);
      }
    }
    for (std::size_t j = 2; i + j < channels; ++j) {
      EXPECT_LE(m[i][i + j], m[i][i + j - 1]);
    }
  }
  // Tighter isolation can only reduce every receiver's leakage.
  photonics::WdmFilter tighter = filter;
  tighter.adjacent_isolation_db = isolation_db + 10.0;
  tighter.isolation_floor_db = filter.isolation_floor_db + 10.0;
  const auto tight = photonics::crosstalk_matrix(grid, tighter);
  for (std::size_t i = 0; i < channels; ++i) {
    for (std::size_t j = 0; j < channels; ++j) {
      if (i != j) { EXPECT_LE(tight[i][j], m[i][j]); }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WdmMatrix,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{9}),
                       ::testing::Values(15.0, 25.0, 35.0)),
    [](const auto& info) {
      return "ch" + std::to_string(std::get<0>(info.param)) + "_iso" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });
