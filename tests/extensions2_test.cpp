// Tests for the intra-chip waveguide model and the FEC-protected link.
#include <gtest/gtest.h>

#include "oci/link/fec_link.hpp"
#include "oci/photonics/waveguide.hpp"

namespace {

using namespace oci;
using util::Frequency;
using util::Length;
using util::RngStream;
using util::Time;

// ---------- waveguide ----------

photonics::WaveguideParams wg_params() {
  photonics::WaveguideParams p;
  p.propagation_loss_db_per_cm = 1.0;
  p.bend_loss_db = 0.1;
  p.coupling_loss_db = 1.5;
  p.splitter_excess_db = 0.3;
  return p;
}

TEST(Waveguide, DbHelpers) {
  EXPECT_NEAR(photonics::db_to_linear(3.0103), 0.5, 1e-4);
  EXPECT_NEAR(photonics::linear_to_db(0.1), 10.0, 1e-9);
  EXPECT_THROW((void)photonics::linear_to_db(0.0), std::invalid_argument);
}

TEST(Waveguide, LossBudgetAddsUp) {
  const photonics::Waveguide wg(wg_params());
  // 2 cm route, 4 bends: 2*1.0 + 4*0.1 + 2*1.5 = 5.4 dB.
  EXPECT_NEAR(wg.loss_db(Length::metres(0.02), 4), 5.4, 1e-9);
  EXPECT_NEAR(wg.transmittance(Length::metres(0.02), 4),
              photonics::db_to_linear(5.4), 1e-12);
}

TEST(Waveguide, SplitterTreeHalvesPerStage) {
  const photonics::Waveguide wg(wg_params());
  const double t0 = wg.split_transmittance(Length::metres(0.01), 0);
  const double t1 = wg.split_transmittance(Length::metres(0.01), 1);
  // One stage: 3.01 dB split + 0.3 dB excess ~ factor 0.467.
  EXPECT_NEAR(t1 / t0, photonics::db_to_linear(3.0103 + 0.3), 1e-6);
}

TEST(Waveguide, MaxRouteInvertsLoss) {
  const photonics::Waveguide wg(wg_params());
  const Length max = wg.max_route(0.01, 2);  // 20 dB budget
  EXPECT_NEAR(wg.transmittance(max, 2), 0.01, 1e-6);
  EXPECT_THROW((void)wg.max_route(0.0, 0), std::invalid_argument);
}

TEST(Waveguide, CentimetreScaleReach) {
  // With 1 dB/cm, a 10% budget (10 dB) reaches ~7 cm after interface
  // losses -- comfortably across any die. The paper's intra-chip claim.
  const photonics::Waveguide wg(wg_params());
  EXPECT_GT(wg.max_route(0.1).metres(), 0.05);
}

TEST(Waveguide, RejectsNegativeLoss) {
  auto p = wg_params();
  p.propagation_loss_db_per_cm = -1.0;
  EXPECT_THROW(photonics::Waveguide{p}, std::invalid_argument);
}

// ---------- FEC link ----------

link::OpticalLinkConfig fec_link_config() {
  link::OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 8;  // narrow slots: jitter flips occasional bits
  c.channel_transmittance = 0.8;
  c.led.peak_power = util::Power::microwatts(50.0);
  // 120 ps sigma against a 208 ps slot: ~30% of symbols spill one slot
  // (single Gray bit, SECDED-correctable) while <1% spill two (frame
  // drop), so FEC transfers mostly succeed with corrections > 0.
  c.spad.jitter_sigma = Time::picoseconds(120.0);
  c.spad.dcr_at_ref = Frequency::hertz(0.0);
  c.spad.afterpulse_probability = 0.0;
  c.calibration_samples = 100000;
  return c;
}

TEST(FecLink, CleanChannelRoundTrip) {
  auto cfg = fec_link_config();
  cfg.spad.jitter_sigma = Time::zero();
  cfg.bits_per_symbol = 5;
  RngStream rng(839);
  const link::OpticalLink link(cfg, rng);
  const link::FecLink fec(link);
  RngStream tx(841);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 250, 251, 252};
  const auto r = fec.transfer(payload, tx);
  ASSERT_TRUE(r.payload.has_value());
  EXPECT_EQ(*r.payload, payload);
  EXPECT_EQ(r.corrections, 0u);
}

TEST(FecLink, CorrectsJitterFlips) {
  // On a jittery narrow-slot link, plain CRC framing loses frames that
  // FEC delivers (with corrections > 0 over many transfers).
  RngStream rng(853);
  const link::OpticalLink link(fec_link_config(), rng);
  const link::FecLink fec(link);

  RngStream tx(857);
  std::size_t fec_ok = 0, fec_corrections = 0;
  const std::vector<std::uint8_t> payload{'f', 'e', 'c', '-', 'd', 'a', 't', 'a'};
  const int transfers = 60;
  for (int i = 0; i < transfers; ++i) {
    const auto r = fec.transfer(payload, tx);
    if (r.payload && *r.payload == payload) {
      ++fec_ok;
      fec_corrections += r.corrections;
    }
  }
  EXPECT_GT(fec_ok, transfers / 2);
  EXPECT_GT(fec_corrections, 0u);  // it actually corrected something
}

TEST(FecLink, NeverDeliversCorruptPayload) {
  // Even on a terrible channel, a delivered payload must be intact
  // (CRC-8 after FEC): corruption -> nullopt, not wrong bytes.
  auto cfg = fec_link_config();
  cfg.spad.jitter_sigma = Time::picoseconds(600.0);  // catastrophic
  RngStream rng(859);
  const link::OpticalLink link(cfg, rng);
  const link::FecLink fec(link);
  RngStream tx(863);
  const std::vector<std::uint8_t> payload{9, 8, 7, 6, 5};
  for (int i = 0; i < 40; ++i) {
    const auto r = fec.transfer(payload, tx);
    if (r.payload) { EXPECT_EQ(*r.payload, payload); }
  }
}

TEST(FecLink, SymbolAccounting) {
  RngStream rng(877);
  const link::OpticalLink link(fec_link_config(), rng);
  const link::FecLink fec(link);
  // 8 payload bytes + 1 CRC = 9 bytes -> 18 coded bytes = 144 bits ->
  // 18 symbols at 8 bits/symbol.
  EXPECT_EQ(fec.symbols_for(8), 18u);
  RngStream tx(881);
  const auto r = fec.transfer(std::vector<std::uint8_t>(8, 0xAA), tx);
  EXPECT_EQ(r.stats.symbols_sent, 18u);
}

}  // namespace
