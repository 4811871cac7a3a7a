// LinkEngine regression suite.
//
// Two layers of protection around the zero-allocation hot path:
//  * GOLDEN, bit-for-bit -- OpticalLink's measure()/transmit() must
//    reproduce the exact counters of an explicit LinkEngine run at the
//    same seed: the facade and the engine ride the same batched driver.
//    (Per-lane bit-exactness of the batched path itself -- across batch
//    sizes, per-lane inputs and thread counts -- is pinned separately
//    in engine_batch_test.)
//  * STATISTICAL -- the reference per-photon pipeline
//    (transmit_symbol_reference) draws differently by design, so
//    agreement with the engine is asserted with two-proportion z-tests
//    on erasure/error/noise-capture rates across link configurations.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/stat_assert.hpp"

#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"

namespace {

using namespace oci;
using link::LinkEngine;
using link::LinkRunStats;
using link::OpticalLink;
using link::OpticalLinkConfig;
using util::Frequency;
using util::Power;
using util::RngStream;
using util::Time;

OpticalLinkConfig base_config() {
  OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.channel_transmittance = 0.5;
  c.led.peak_power = Power::microwatts(50.0);
  c.spad.dcr_at_ref = Frequency::hertz(100.0);
  c.spad.afterpulse_probability = 0.005;
  c.calibration_samples = 50000;
  return c;
}

OpticalLinkConfig dim_noisy_config() {
  OpticalLinkConfig c = base_config();
  c.led.peak_power = Power::nanowatts(300.0);  // photon-starved
  c.spad.dcr_at_ref = Frequency::kilohertz(200.0);
  c.background_rate = Frequency::megahertz(2.0);
  c.calibrate = false;
  return c;
}

OpticalLinkConfig afterpulsing_config() {
  OpticalLinkConfig c = base_config();
  c.spad.afterpulse_probability = 0.05;
  c.calibrate = false;
  return c;
}

void expect_identical(const LinkRunStats& a, const LinkRunStats& b) {
  EXPECT_EQ(a.symbols_sent, b.symbols_sent);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
  EXPECT_EQ(a.erasures, b.erasures);
  EXPECT_EQ(a.noise_captures, b.noise_captures);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_DOUBLE_EQ(a.elapsed.seconds(), b.elapsed.seconds());
  EXPECT_DOUBLE_EQ(a.tx_energy.joules(), b.tx_energy.joules());
  EXPECT_DOUBLE_EQ(a.rx_energy.joules(), b.rx_energy.joules());
}

// ---------- golden: drivers agree bit-for-bit ----------

class EngineGolden : public ::testing::TestWithParam<int> {
 protected:
  OpticalLinkConfig config() const {
    switch (GetParam()) {
      case 0:
        return base_config();
      case 1:
        return dim_noisy_config();
      default:
        return afterpulsing_config();
    }
  }
};

TEST_P(EngineGolden, MeasureMatchesExplicitEngineBitForBit) {
  RngStream process(811);
  const OpticalLink link(config(), process);

  RngStream tx_api(821);
  const LinkRunStats via_api = link.measure(1500, tx_api);

  RngStream tx_engine(821);
  const LinkEngine engine(link);
  const LinkRunStats via_engine = engine.measure(1500, tx_engine);

  expect_identical(via_api, via_engine);
}

TEST_P(EngineGolden, TransmitMatchesRunSequenceBitForBit) {
  RngStream process(829);
  const OpticalLink link(config(), process);

  std::vector<std::uint64_t> symbols;
  RngStream pick(831);
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  for (int i = 0; i < 400; ++i) {
    symbols.push_back(static_cast<std::uint64_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(max_symbol))));
  }

  RngStream tx_a(837);
  const OpticalLink::RunResult run = link.transmit(symbols, tx_a);

  RngStream tx_b(837);
  const LinkEngine engine(link);
  std::vector<std::uint64_t> decoded;
  std::vector<bool> erased;
  const LinkRunStats stats = engine.run_sequence(
      symbols, tx_b, [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
        decoded.push_back(out.decoded);
        erased.push_back(out.erased);
      });

  expect_identical(run.stats, stats);
  EXPECT_EQ(run.decoded, decoded);
  EXPECT_EQ(run.erased, erased);
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineGolden, ::testing::Values(0, 1, 2));

// ---------- statistical: engine vs reference pipeline ----------

struct PathRates {
  LinkRunStats stats;
};

PathRates run_reference(const OpticalLink& link, std::uint64_t symbols, RngStream& rng) {
  PathRates out;
  Time t = Time::zero();
  Time dead_until = Time::zero();
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  for (std::uint64_t i = 0; i < symbols; ++i) {
    const auto symbol = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_symbol)));
    (void)link.transmit_symbol_reference(symbol, t, dead_until, out.stats, rng, {});
    t += link.symbol_period();
  }
  return out;
}

class EngineVsReference : public ::testing::TestWithParam<int> {};

TEST_P(EngineVsReference, ErrorRatesConsistent) {
  OpticalLinkConfig cfg;
  std::uint64_t n = 4000;
  switch (GetParam()) {
    case 0:
      cfg = base_config();
      break;
    case 1:
      cfg = dim_noisy_config();
      break;
    case 2:
      cfg = afterpulsing_config();
      break;
    case 3:  // jitter-dominated narrow slots
      cfg = base_config();
      cfg.bits_per_symbol = 8;
      cfg.spad.jitter_sigma = Time::picoseconds(150.0);
      break;
    default:  // paper-exact 106 ns windows and a dim 60 ns pulse: a
              // fired pulse restarts at the dead-time horizon, and its
              // candidates past it set the carry that blinds the next
              // window (a kernel that drops them reads 547 symbol
              // errors against the reference's 702, |z| 4.8, and bit
              // errors |z| 7.9)
      cfg = base_config();
      cfg.design.coarse_bits = 5;
      cfg.inter_symbol_guard = Time::zero();
      cfg.led.pulse_width = Time::nanoseconds(60.0);
      cfg.led.peak_power = Power::nanowatts(3.0);
      break;
  }
  RngStream process(907);
  const OpticalLink link(cfg, process);

  RngStream tx_ref(911);
  const PathRates ref = run_reference(link, n, tx_ref);

  RngStream tx_eng(919);
  const LinkEngine engine(link);
  const LinkRunStats eng = engine.measure(n, tx_eng);

  EXPECT_EQ(ref.stats.symbols_sent, eng.symbols_sent);
  EXPECT_RATES_CONSISTENT(ref.stats.erasures, n, eng.erasures, n, 1e-4);
  EXPECT_RATES_CONSISTENT(ref.stats.symbol_errors, n, eng.symbol_errors, n, 1e-4);
  EXPECT_RATES_CONSISTENT(ref.stats.noise_captures, n, eng.noise_captures, n, 1e-4);
  EXPECT_RATES_CONSISTENT(ref.stats.bit_errors, ref.stats.total_bits, eng.bit_errors,
                          eng.total_bits, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineVsReference, ::testing::Values(0, 1, 2, 3, 4));

// ---------- engine-specific behaviours ----------

TEST(LinkEngine, DeterministicAcrossIdenticalSeeds) {
  RngStream p1(941), p2(941);
  const OpticalLink a(base_config(), p1), b(base_config(), p2);
  RngStream t1(947), t2(947);
  expect_identical(LinkEngine(a).measure(500, t1), LinkEngine(b).measure(500, t2));
}

TEST(LinkEngine, DeadTimeCarriesAcrossSymbols) {
  // Paper-exact windows (no guard) on a bright link: a late pulse
  // followed by an early one must land in the SPAD's blind carry and
  // erase -- the engine must reproduce the reference inter-symbol
  // coupling, not treat windows independently.
  auto cfg = base_config();
  cfg.inter_symbol_guard = Time::zero();
  cfg.calibrate = false;
  RngStream process(953);
  const OpticalLink link(cfg, process);

  // Symbol in the LAST slot then symbol in the FIRST slot: the second
  // pulse follows the first by far less than the 40 ns dead time.
  const std::array<std::uint64_t, 2> symbols{link.ppm().symbol_for_slot(31),
                                             link.ppm().symbol_for_slot(0)};
  std::vector<bool> erased;
  const LinkRunStats stats = LinkEngine(link).run_sequence(
      symbols, process,
      [&](std::size_t, const LinkEngine::SymbolOutcome& out) { erased.push_back(out.erased); });
  EXPECT_EQ(stats.erasures, 1u);
  EXPECT_EQ(erased, (std::vector<bool>{false, true}));  // second window blind
}

TEST(LinkEngine, TrainingBatchFindsTheLeadingEdgeOnTheDarkCountRate) {
  // recalibrate's training pulses run as one kernel batch. A bright
  // pulse fires the SPAD near its leading edge, so the trained offset
  // sits within 1 ns of the pulse start; ambient background stays out
  // of training, so a link that differs only in background rate trains
  // to the same offset, bit for bit, from the same streams.
  RngStream process(967);
  OpticalLink link(base_config(), process);
  RngStream rng(971);
  const std::uint64_t lane_draws = link.recalibrate(50000, rng);
  EXPECT_GE(lane_draws, 1000u);  // every probe draws its signal hazard at least
  EXPECT_NEAR(link.detection_offset().nanoseconds(), 0.0, 1.0);

  OpticalLinkConfig lit = base_config();
  lit.background_rate = Frequency::megahertz(50.0);
  RngStream lit_process(967);
  OpticalLink lit_link(lit, lit_process);
  RngStream lit_rng(971);
  EXPECT_EQ(lit_link.recalibrate(50000, lit_rng), lane_draws);
  EXPECT_EQ(lit_link.detection_offset().seconds(), link.detection_offset().seconds());
}

}  // namespace
