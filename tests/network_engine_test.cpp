// Multi-source LinkEngine regression suite.
//
// The window kernel streams each co-channel aggressor as a
// lazily-advanced thinned-Poisson hazard state and merges the
// candidates, where the reference pipeline materialises, sorts and
// per-photon-thins the leaked photons. The two consume RNG draws
// completely differently, so agreement is pinned statistically: pooled two-proportion z-tests
// (tests/support/stat_assert.hpp) on erasure / symbol-error /
// noise-capture / bit-error rates, for each interference-bearing
// consumer path (raw interference, WDM, bus contention) at >= 3
// configurations each. Golden bit-for-bit checks cover what MUST be
// exact: every WindowInputs field at its neutral value (unit scales, no
// or zero-mean aggressors, the identity rare proposal) degenerating to
// the plain single-source run, and determinism across identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/stat_assert.hpp"

#include "oci/bus/vertical_bus.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"
#include "oci/link/wdm_link.hpp"
#include "oci/net/stack_network.hpp"

namespace {

using namespace oci;
using link::LinkEngine;
using link::LinkRunStats;
using link::OpticalLink;
using link::OpticalLinkConfig;
using photonics::PhotonArrival;
using util::Frequency;
using util::Power;
using util::RngStream;
using util::Time;

constexpr double kAlpha = 1e-4;

// ---------- shared helpers ----------

void expect_identical(const LinkRunStats& a, const LinkRunStats& b) {
  EXPECT_EQ(a.symbols_sent, b.symbols_sent);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
  EXPECT_EQ(a.erasures, b.erasures);
  EXPECT_EQ(a.noise_captures, b.noise_captures);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.total_bits, b.total_bits);
}

void expect_consistent(const LinkRunStats& ref, const LinkRunStats& eng) {
  ASSERT_GT(ref.symbols_sent, 0u);
  ASSERT_EQ(ref.symbols_sent, eng.symbols_sent);
  const std::uint64_t n = ref.symbols_sent;
  EXPECT_RATES_CONSISTENT(ref.erasures, n, eng.erasures, n, kAlpha);
  EXPECT_RATES_CONSISTENT(ref.symbol_errors, n, eng.symbol_errors, n, kAlpha);
  EXPECT_RATES_CONSISTENT(ref.noise_captures, n, eng.noise_captures, n, kAlpha);
  EXPECT_RATES_CONSISTENT(ref.bit_errors, ref.total_bits, eng.bit_errors, eng.total_bits,
                          kAlpha);
}

// ---------- interference path: engine vs reference oracle ----------

struct InterferenceCase {
  OpticalLinkConfig cfg;
  std::vector<double> aggressor_means;      ///< leaked photons per pulse
  std::vector<double> aggressor_fractions;  ///< pulse start, fraction of window
  std::uint64_t symbols = 0;
};

InterferenceCase interference_case(int id) {
  InterferenceCase c;
  c.cfg.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.cfg.bits_per_symbol = 5;
  c.cfg.channel_transmittance = 0.5;
  c.cfg.led.peak_power = Power::microwatts(50.0);
  c.cfg.spad.dcr_at_ref = Frequency::hertz(100.0);
  c.cfg.calibrate = false;
  switch (id) {
    case 0:  // bright link, two moderate aggressors
      c.aggressor_means = {8.0, 5.0};
      c.aggressor_fractions = {0.2, 0.7};
      c.symbols = 3000;
      break;
    case 1:  // photon-starved and noisy, four weak aggressors
      c.cfg.led.peak_power = Power::nanowatts(300.0);
      c.cfg.spad.dcr_at_ref = Frequency::kilohertz(200.0);
      c.cfg.background_rate = Frequency::megahertz(2.0);
      c.aggressor_means = {2.0, 1.0, 0.5, 2.5};
      c.aggressor_fractions = {0.1, 0.35, 0.6, 0.85};
      c.symbols = 3000;
      break;
    default:  // heavy afterpulsing, one strong early aggressor
      c.cfg.spad.afterpulse_probability = 0.05;
      c.aggressor_means = {20.0};
      c.aggressor_fractions = {0.15};
      c.symbols = 2500;
      break;
  }
  return c;
}

LinkRunStats run_interference_engine(const InterferenceCase& c, const OpticalLink& link,
                                     RngStream& rng) {
  const auto max_symbol = static_cast<std::int64_t>(link.ppm().slot_count()) - 1;
  std::vector<std::uint64_t> symbols(c.symbols);
  for (std::uint64_t& s : symbols) s = static_cast<std::uint64_t>(rng.uniform_int(0, max_symbol));
  // Every window carries the same aggressors at the same window-local
  // starts.
  std::vector<double> starts;
  for (std::uint64_t i = 0; i < c.symbols; ++i) {
    for (const double f : c.aggressor_fractions) {
      starts.push_back((link.toa_window() * f).seconds());
    }
  }
  return LinkEngine(link).run_sequence(
      symbols, rng, [](std::size_t, const LinkEngine::SymbolOutcome&) {},
      {.aggressor_means = c.aggressor_means, .aggressor_starts_s = starts});
}

LinkRunStats run_interference_reference(const InterferenceCase& c, const OpticalLink& link,
                                        RngStream& rng) {
  LinkRunStats stats;
  Time t = Time::zero();
  Time dead_until = Time::zero();
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  for (std::uint64_t i = 0; i < c.symbols; ++i) {
    const auto symbol = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_symbol)));
    // Materialise each aggressor pulse the pre-engine way.
    std::vector<PhotonArrival> interference;
    for (std::size_t k = 0; k < c.aggressor_means.size(); ++k) {
      const Time start = t + link.toa_window() * c.aggressor_fractions[k];
      const auto n = rng.poisson(c.aggressor_means[k]);
      for (std::int64_t p = 0; p < n; ++p) {
        const Time offset = link.led().sample_emission_time(rng.uniform());
        interference.push_back(PhotonArrival{start + offset, /*is_signal=*/false});
      }
    }
    std::sort(interference.begin(), interference.end(),
              [](const PhotonArrival& x, const PhotonArrival& y) { return x.time < y.time; });
    (void)link.transmit_symbol_reference(symbol, t, dead_until, stats, rng,
                                         std::move(interference));
    t += link.symbol_period();
  }
  return stats;
}

class InterferenceEngineVsReference : public ::testing::TestWithParam<int> {};

TEST_P(InterferenceEngineVsReference, RatesConsistent) {
  const InterferenceCase c = interference_case(GetParam());
  RngStream process(1013);
  const OpticalLink link(c.cfg, process);

  RngStream tx_ref(1019);
  const LinkRunStats ref = run_interference_reference(c, link, tx_ref);
  RngStream tx_eng(1021);
  const LinkRunStats eng = run_interference_engine(c, link, tx_eng);

  expect_consistent(ref, eng);
}

INSTANTIATE_TEST_SUITE_P(Configs, InterferenceEngineVsReference,
                         ::testing::Values(0, 1, 2));

TEST(MultiSourceEngine, NeutralInputsMatchThePlainRunBitForBit) {
  // Every WindowInputs field at its neutral value is an exact no-op:
  // unit scales, zero-mean aggressors and the identity rare proposal
  // each replay the plain run draw for draw, log weights staying 0.
  const InterferenceCase c = interference_case(0);
  RngStream process(1031);
  const OpticalLink link(c.cfg, process);
  const LinkEngine engine(link);

  constexpr std::size_t kSymbols = 400;
  std::vector<std::uint64_t> symbols(kSymbols);
  for (std::size_t i = 0; i < kSymbols; ++i) symbols[i] = i % 32;
  const std::vector<double> ones(kSymbols, 1.0);
  const std::array<double, 2> silent{0.0, 0.0};
  const std::vector<double> starts(2 * kSymbols, 0.5 * link.toa_window().seconds());
  const link::RareSampling identity;
  const std::array<link::WindowInputs, 4> inputs{{
      {},
      {.signal_scale = ones},
      {.aggressor_means = silent, .aggressor_starts_s = starts},
      {.rare = &identity},
  }};

  struct Run {
    LinkRunStats stats;
    std::vector<std::uint64_t> decoded;
    double log_weights = 0.0;
    std::uint64_t draws = 0;
  };
  std::vector<Run> runs(inputs.size());
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    RngStream tx(1033);
    runs[r].stats = engine.run_sequence(
        symbols, tx,
        [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
          runs[r].decoded.push_back(out.decoded);
          runs[r].log_weights += std::abs(out.log_weight);
        },
        inputs[r]);
    runs[r].draws = tx.draws();
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("inputs " + std::to_string(r));
    expect_identical(runs[0].stats, runs[r].stats);
    EXPECT_EQ(runs[0].stats.rng_draws, runs[r].stats.rng_draws);
    EXPECT_EQ(runs[0].decoded, runs[r].decoded);
    EXPECT_EQ(runs[0].draws, runs[r].draws);
    EXPECT_EQ(runs[r].log_weights, 0.0);
  }
}

TEST(MultiSourceEngine, StrongAggressorsRaiseNoiseCaptures) {
  InterferenceCase clean = interference_case(0);
  clean.aggressor_means = {};
  clean.aggressor_fractions = {};
  clean.symbols = 2000;
  InterferenceCase loud = interference_case(0);
  loud.aggressor_means = {25.0, 25.0, 25.0};
  loud.aggressor_fractions = {0.2, 0.5, 0.8};
  loud.symbols = 2000;

  RngStream process(1039);
  const OpticalLink link(clean.cfg, process);
  RngStream tx_clean(1049);
  const LinkRunStats quiet = run_interference_engine(clean, link, tx_clean);
  RngStream tx_loud(1051);
  const LinkRunStats noisy = run_interference_engine(loud, link, tx_loud);

  EXPECT_RATE_LT(quiet.noise_captures, quiet.symbols_sent, 0.05, 1e-6);
  EXPECT_RATE_GT(noisy.noise_captures, noisy.symbols_sent, 0.10, 1e-6);
}

// ---------- WDM path: engine vs reference oracle ----------

link::WdmLinkConfig wdm_case(int id) {
  link::WdmLinkConfig c;
  c.base.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.base.bits_per_symbol = 6;
  c.base.led.peak_power = Power::microwatts(2.0);
  c.base.spad.jitter_sigma = Time::picoseconds(40.0);
  c.base.spad.dcr_at_ref = Frequency::hertz(350.0);
  c.base.calibrate = false;
  c.path_transmittance = 0.3;
  switch (id) {
    case 0:  // two channels, stock isolation
      c.grid.channels = 2;
      break;
    case 1:  // four channels, leaky demux: crosstalk-dominated
      c.grid.channels = 4;
      c.filter.adjacent_isolation_db = 15.0;
      c.filter.isolation_floor_db = 35.0;
      break;
    default:  // four channels, tight grid at stock isolation
      c.grid.channels = 4;
      c.grid.spacing = util::Wavelength::nanometres(15.0);
      break;
  }
  return c;
}

LinkRunStats sum_channels(const link::WdmLink::RunResult& run) {
  LinkRunStats total;
  for (const auto& chan : run.per_channel) total += chan.stats;
  return total;
}

class WdmEngineVsReference : public ::testing::TestWithParam<int> {};

TEST_P(WdmEngineVsReference, RatesConsistent) {
  const link::WdmLinkConfig cfg = wdm_case(GetParam());
  RngStream process(1061);
  const link::WdmLink wdm(cfg, process);

  constexpr std::uint64_t kSymbolsPerChannel = 500;
  RngStream tx_ref(1063);
  const LinkRunStats ref = sum_channels(wdm.measure_reference(kSymbolsPerChannel, tx_ref));
  RngStream tx_eng(1069);
  const LinkRunStats eng = sum_channels(wdm.measure(kSymbolsPerChannel, tx_eng));

  expect_consistent(ref, eng);
}

INSTANTIATE_TEST_SUITE_P(Configs, WdmEngineVsReference, ::testing::Values(0, 1, 2));

TEST(WdmEngine, DeterministicAcrossIdenticalSeeds) {
  const link::WdmLinkConfig cfg = wdm_case(1);
  RngStream p1(1087), p2(1087);
  const link::WdmLink a(cfg, p1), b(cfg, p2);
  RngStream t1(1091), t2(1091);
  const auto ra = a.measure(200, t1);
  const auto rb = b.measure(200, t2);
  ASSERT_EQ(ra.per_channel.size(), rb.per_channel.size());
  for (std::size_t i = 0; i < ra.per_channel.size(); ++i) {
    expect_identical(ra.per_channel[i].stats, rb.per_channel[i].stats);
    EXPECT_EQ(ra.per_channel[i].decoded, rb.per_channel[i].decoded);
  }
}

// ---------- bus contention path: engine vs reference oracle ----------

bus::VerticalBusConfig bus_case(int id) {
  bus::VerticalBusConfig c;
  c.dies = 4;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.led.wavelength = util::Wavelength::nanometres(850.0);
  c.led.peak_power = Power::microwatts(2.0);
  c.spad.dcr_at_ref = Frequency::hertz(350.0);
  switch (id) {
    case 0:  // uncontended slot (aggressor-free sanity)
      break;
    case 1:  // one colliding neighbour
      break;
    default:  // deep stack, two colliders
      c.dies = 6;
      break;
  }
  return c;
}

std::vector<std::size_t> bus_talkers(int id) {
  switch (id) {
    case 0:
      return {1};
    case 1:
      return {1, 2};
    default:
      return {2, 1, 4};
  }
}

/// Mirrors monte_carlo_upstream_contention draw-for-draw on the setup
/// (same fork labels => identical link construction) but runs the
/// windows through the materialised-photon reference pipeline.
LinkRunStats run_contention_reference(const bus::VerticalBus& vbus,
                                      std::span<const std::size_t> talkers,
                                      std::uint64_t symbols, RngStream& rng) {
  const auto& cfg = vbus.config();
  RngStream process = rng.fork("contention-link");
  const OpticalLink link(vbus.receiver_link_config(talkers[0], cfg.master), process);
  const photonics::MicroLed& led = link.led();

  std::vector<double> aggressor_mean;
  for (std::size_t k = 1; k < talkers.size(); ++k) {
    aggressor_mean.push_back(
        led.photons_per_pulse() *
        vbus.stack().transmittance(talkers[k], cfg.master, cfg.led.wavelength));
  }

  LinkRunStats stats;
  RngStream tx = rng.fork("contention-tx");
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  Time t = Time::zero();
  Time dead_until = Time::zero();
  for (std::uint64_t s = 0; s < symbols; ++s) {
    const auto symbol = static_cast<std::uint64_t>(
        tx.uniform_int(0, static_cast<std::int64_t>(max_symbol)));
    std::vector<PhotonArrival> interference;
    for (const double mean : aggressor_mean) {
      const auto colliding = static_cast<std::uint64_t>(
          tx.uniform_int(0, static_cast<std::int64_t>(max_symbol)));
      const Time pulse_start = t + link.ppm().encode(colliding);
      const auto n = tx.poisson(mean);
      for (std::int64_t p = 0; p < n; ++p) {
        const Time offset = led.sample_emission_time(tx.uniform());
        interference.push_back(PhotonArrival{pulse_start + offset, /*is_signal=*/false});
      }
    }
    std::sort(interference.begin(), interference.end(),
              [](const PhotonArrival& x, const PhotonArrival& y) { return x.time < y.time; });
    (void)link.transmit_symbol_reference(symbol, t, dead_until, stats, tx,
                                         std::move(interference));
    t += link.symbol_period();
  }
  return stats;
}

class BusContentionEngineVsReference : public ::testing::TestWithParam<int> {};

TEST_P(BusContentionEngineVsReference, RatesConsistent) {
  const bus::VerticalBus vbus(bus_case(GetParam()));
  const std::vector<std::size_t> talkers = bus_talkers(GetParam());
  constexpr std::uint64_t kSymbols = 1200;

  // Same outer seed => fork("contention-link") builds the identical
  // receiver chain on both sides; only the window simulation differs.
  RngStream rng_ref(1093);
  const LinkRunStats ref = run_contention_reference(vbus, talkers, kSymbols, rng_ref);
  RngStream rng_eng(1093);
  const LinkRunStats eng =
      vbus.monte_carlo_upstream_contention(talkers, kSymbols, rng_eng);

  expect_consistent(ref, eng);
}

INSTANTIATE_TEST_SUITE_P(Configs, BusContentionEngineVsReference,
                         ::testing::Values(0, 1, 2));

TEST(VerticalBusMonteCarlo, BroadcastReachesNearDiesAndIsDeterministic) {
  const bus::VerticalBusConfig cfg = bus_case(0);
  const bus::VerticalBus vbus(cfg);
  RngStream process(1097);
  const bus::BusReceivers receivers = vbus.build_receivers(process);
  RngStream r1(1099), r2(1099);
  const auto a = vbus.monte_carlo_broadcast(receivers, 400, r1);
  const auto b = vbus.monte_carlo_broadcast(receivers, 400, r2);

  ASSERT_EQ(receivers.size(), cfg.dies - 1);
  ASSERT_EQ(a.per_die.size(), receivers.size());
  for (std::size_t i = 0; i < a.per_die.size(); ++i) {
    expect_identical(a.per_die[i], b.per_die[i]);
    EXPECT_EQ(a.per_die[i].symbols_sent, 400u);
  }
  // The die adjacent to the master sees the healthiest budget: its
  // erasure rate must stay below the far die's (or both are ~0).
  const auto& near = a.per_die.front();
  const auto& far = a.per_die.back();
  EXPECT_LE(near.erasures, far.erasures + 50);
}

TEST(VerticalBusMonteCarlo, BroadcastRejectsAnEmptyReceiverSet) {
  const bus::VerticalBus vbus(bus_case(0));
  RngStream rng(1101);
  EXPECT_THROW((void)vbus.monte_carlo_broadcast({}, 10, rng), std::invalid_argument);
}

TEST(VerticalBusMonteCarlo, RejectsBadTalkers) {
  const bus::VerticalBus vbus(bus_case(0));
  RngStream rng(1103);
  EXPECT_THROW((void)vbus.monte_carlo_upstream_contention({}, 10, rng),
               std::invalid_argument);
  const std::vector<std::size_t> master_talker{0};
  EXPECT_THROW((void)vbus.monte_carlo_upstream_contention(master_talker, 10, rng),
               std::invalid_argument);
  const std::vector<std::size_t> oob{9};
  EXPECT_THROW((void)vbus.monte_carlo_upstream_contention(oob, 10, rng),
               std::invalid_argument);
  const std::vector<std::size_t> duplicated{1, 2, 1};
  EXPECT_THROW((void)vbus.monte_carlo_upstream_contention(duplicated, 10, rng),
               std::invalid_argument);
}

// ---------- NoC coupling: LinkEngine-backed delivery model ----------

OpticalLinkConfig noc_link_config(double jitter_ps) {
  OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.channel_transmittance = 0.5;
  c.led.peak_power = Power::microwatts(50.0);
  c.spad.dcr_at_ref = Frequency::hertz(350.0);
  c.spad.jitter_sigma = Time::picoseconds(jitter_ps);
  c.calibrate = false;
  return c;
}

net::StackNetworkConfig noc_config() {
  net::StackNetworkConfig c;
  c.dies = 4;
  c.traffic.resize(c.dies);
  for (auto& t : c.traffic) {
    t.packets_per_slot = 0.1;
    t.uniform_destinations = true;
  }
  return c;
}

TEST(NocCoupling, DeliveryModelOverridesBernoulli) {
  auto cfg = noc_config();
  cfg.delivery_probability = 0.0;  // Bernoulli path would deliver nothing
  cfg.delivery_model = [](const net::Packet&, RngStream&) { return true; };
  net::StackNetwork netw(cfg, std::make_unique<net::TokenMac>(cfg.dies, 0));
  RngStream rng(1109);
  const auto r = netw.run(2000, rng);
  EXPECT_GT(r.total_offered(), 0u);
  EXPECT_EQ(r.total_delivered() + [&] {
    std::uint64_t drops = 0;
    for (const auto& d : r.per_die) drops += d.retry_drops + d.queue_drops;
    return drops;
  }() + netw.backlog(), r.total_offered());
  EXPECT_GT(r.total_delivered(), 0u);
}

TEST(NocCoupling, PhotonLevelDeliveryTracksLinkQuality) {
  RngStream p_good(1117), p_bad(1117);
  const OpticalLink good_link(noc_link_config(40.0), p_good);
  const OpticalLink bad_link(noc_link_config(600.0), p_bad);  // jitter-swamped slots
  link::SymbolDeliveryModel good_phy(good_link);
  link::SymbolDeliveryModel bad_phy(bad_link);

  const auto run_with = [&](link::SymbolDeliveryModel& phy) {
    auto cfg = noc_config();
    cfg.delivery_model = [&phy](const net::Packet& p, RngStream& rng) {
      return phy.deliver(p.payload_bytes, rng);
    };
    net::StackNetwork netw(cfg, std::make_unique<net::TokenMac>(cfg.dies, 0));
    RngStream rng(1123);
    return netw.run(3000, rng);
  };

  const auto good = run_with(good_phy);
  const auto bad = run_with(bad_phy);
  EXPECT_GT(good.delivery_ratio(), 0.8);
  EXPECT_LT(bad.delivery_ratio(), good.delivery_ratio());
  // The phy model exposes photon-level counters the Bernoulli
  // abstraction cannot: the broken link's symbol errors must dwarf the
  // healthy link's.
  EXPECT_GT(bad_phy.cumulative().symbol_errors, good_phy.cumulative().symbol_errors);
  EXPECT_GT(good_phy.cumulative().symbols_sent, 0u);
}

}  // namespace
