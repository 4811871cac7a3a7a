// Window kernel contracts (kernels::simulate_lane, LinkEngine's batched
// simulate_windows and drivers, and its per-window transmit_symbol),
// pinned bit-for-bit:
//
//  * Golden lanes -- every lane's outputs, draw count and (under a
//    proposal) log likelihood-ratio hash to a digest fixed across
//    commits: plain lanes, lanes with two aggressor pulses, and lanes
//    under tilted or band-conditioned proposals. The kernel is built
//    from exactly-rounded operations only, in a -ffp-contract=off TU,
//    so a changed digest means changed physics or RNG consumption,
//    which needs a kEngineRevision bump.
//  * One simulator -- a transmit_symbol window IS the kernel lane keyed
//    by one raw draw of the caller's stream: same outcome, carry and
//    draw count as that lane run through simulate_windows.
//  * Lane decomposability -- a lane's result is a pure function of
//    (engine config, stream root, lane index): batches can be split,
//    sharded across threads, or replayed lane-by-lane without changing
//    a single bit.
//  * Sequential-carry equivalence -- the batched driver's speculative
//    dead-time carry (flat speculation + lane replay on a phantom first
//    fire) reproduces exactly what a window-by-window sequential
//    simulation with true carries produces.
//
// The config matrix covers all three envelopes (rectangular,
// exponential, Gaussian), passive quench, and a photon-starved noisy
// link.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "oci/link/kernels.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/util/batch_rng.hpp"

namespace {

using namespace oci;
using link::EngineBatchScratch;
using link::LinkEngine;
using link::LinkRunStats;
using link::OpticalLink;
using link::OpticalLinkConfig;
using link::WindowResult;
using util::BatchRngStream;
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
  c.calibrate = false;
  return c;
}

OpticalLinkConfig config_for(int param) {
  OpticalLinkConfig c = base_config();
  switch (param) {
    case 0:  // bright rectangular
      break;
    case 1:  // photon-starved and noisy
      c.led.peak_power = Power::nanowatts(300.0);
      c.spad.dcr_at_ref = Frequency::kilohertz(200.0);
      c.background_rate = Frequency::megahertz(2.0);
      break;
    case 2:  // paralyzable dead time + heavy afterpulsing
      c.spad.quench = spad::QuenchMode::kPassive;
      c.spad.afterpulse_probability = 0.05;
      break;
    case 3:  // exponential envelope (log-based inverse CDF)
      c.led.shape = photonics::PulseShape::kExponential;
      break;
    default:  // Gaussian envelope (probit inverse CDF, erfc fast-forward)
      c.led.shape = photonics::PulseShape::kGaussian;
      break;
  }
  return c;
}

/// Deterministic batch inputs: every PPM slot appears, and every 7th
/// lane starts inside a blind carry.
std::vector<WindowResult> make_windows(const OpticalLink& link, std::size_t n) {
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  const double dead_s = link.detector().params().dead_time.seconds();
  std::vector<WindowResult> ws(n);
  for (std::size_t i = 0; i < n; ++i) {
    ws[i].pulse_start_s = link.ppm().encode(i & max_symbol).seconds();
    ws[i].dead_in_s = (i % 7 == 3) ? dead_s * 0.25 : 0.0;
  }
  return ws;
}

void expect_same_windows(const std::vector<WindowResult>& a,
                         const std::vector<WindowResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_EQ(a[i].fired, b[i].fired);
    EXPECT_EQ(a[i].first_is_signal, b[i].first_is_signal);
    EXPECT_EQ(a[i].first_fire_s, b[i].first_fire_s);
    EXPECT_EQ(a[i].first_observed_s, b[i].first_observed_s);
    EXPECT_EQ(a[i].last_fire_s, b[i].last_fire_s);
    EXPECT_EQ(a[i].dead_out_s, b[i].dead_out_s);
    EXPECT_EQ(a[i].rng_draws, b[i].rng_draws);
  }
}

/// 64-bit FNV-1a over every lane's outputs and draw count, then every
/// `extra` value (log likelihood-ratios), doubles by bit pattern.
std::uint64_t lane_digest(const std::vector<WindowResult>& ws,
                          std::span<const double> extra = {}) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const WindowResult& w : ws) {
    mix(w.fired ? 1u : 0u);
    mix(w.first_is_signal ? 1u : 0u);
    mix(w.rng_draws);
    mix(std::bit_cast<std::uint64_t>(w.first_fire_s));
    mix(std::bit_cast<std::uint64_t>(w.first_observed_s));
    mix(std::bit_cast<std::uint64_t>(w.last_fire_s));
    mix(std::bit_cast<std::uint64_t>(w.dead_out_s));
  }
  for (const double x : extra) mix(std::bit_cast<std::uint64_t>(x));
  return h;
}

class EngineBatch : public ::testing::TestWithParam<int> {};

TEST_P(EngineBatch, GoldenLaneDigest) {
  // Captured from the kernel at kEngineRevision 5 and held since; see the
  // file header.
  constexpr std::uint64_t kGolden[] = {
      0xf683901fddc7e2e3ull,  // bright rectangular
      0xf99c06460d27627cull,  // photon-starved and noisy
      0xcaf3c85cd63e1a29ull,  // passive quench + heavy afterpulsing
      0x271ee6820ec1f2adull,  // exponential envelope
      0xc76828f380009313ull,  // Gaussian envelope
  };
  RngStream process(1009);
  const OpticalLink link(config_for(GetParam()), process);
  const LinkEngine engine(link);
  std::vector<WindowResult> ws = make_windows(link, 261);
  const BatchRngStream lanes(0x00C1BA7CE5ull, "engine-batch-test");

  EngineBatchScratch scratch;
  engine.simulate_windows(ws, lanes, scratch);
  EXPECT_EQ(lane_digest(ws), kGolden[GetParam()])
      << std::hex << "digest 0x" << lane_digest(ws);

  // The same lanes through the lane function with per-window sources.
  // Captured at kEngineRevision 6.
  constexpr std::uint64_t kGoldenAggressors[] = {
      0x97da90d1698a0424ull,  // bright rectangular
      0x2c472b592440a581ull,  // photon-starved and noisy
      0xd58fa06e31c47bc6ull,  // passive quench + heavy afterpulsing
      0x230ffe34dcf2a3afull,  // exponential envelope
      0xd3b2b60094737486ull,  // Gaussian envelope
  };
  constexpr std::uint64_t kGoldenProposals[] = {
      0xa6ed4f4cedd4d135ull,  // bright rectangular
      0x8ae10c3f13c5ea03ull,  // photon-starved and noisy
      0xe952665c7d342752ull,  // passive quench + heavy afterpulsing
      0xebb4074fb8f372afull,  // exponential envelope
      0xe256719eb5225547ull,  // Gaussian envelope
  };
  const link::kernels::BatchParams& p = engine.kernel_params();
  const double window_s = link.toa_window().seconds();

  // Two aggressors with the victim's envelope: an early bright one and
  // a late dim one.
  std::vector<WindowResult> agg = make_windows(link, 261);
  for (std::size_t i = 0; i < agg.size(); ++i) {
    std::array<link::kernels::PulseSource, 2> aggressors{};
    aggressors[0].start_s = 0.25 * window_s;
    aggressors[0].lambda = 3.0;
    aggressors[1].start_s = 0.6 * window_s;
    aggressors[1].lambda = 0.8;
    const link::kernels::LaneSources in{.lambda_signal = p.lambda_signal,
                                        .noise_rate = p.noise_rate,
                                        .aggressors = aggressors};
    link::kernels::simulate_lane(p, in, agg[i], lanes.lane(i));
  }
  EXPECT_EQ(lane_digest(agg), kGoldenAggressors[GetParam()])
      << std::hex << "aggressor digest 0x" << lane_digest(agg);

  // Even lanes: jitter x1.5 and noise x3 tilt (scales off powers of two,
  // so the log ratios run pm_log's polynomial); odd lanes: jitter
  // conditioned to a deep band.
  std::vector<WindowResult> tilted = make_windows(link, 261);
  std::vector<double> log_weights;
  for (std::size_t i = 0; i < tilted.size(); ++i) {
    link::RareSampling proposal;
    if (i % 2 == 0) {
      proposal.jitter_scale = 1.5;
      proposal.noise_scale = 3.0;
    } else {
      proposal.condition_jitter = true;
      proposal.band_survival_lo = 1e-6;
      proposal.band_survival_hi = 1e-14;
    }
    const link::kernels::LaneSources in{.lambda_signal = p.lambda_signal,
                                        .noise_rate = p.noise_rate,
                                        .rare = &proposal};
    link::kernels::simulate_lane(p, in, tilted[i], lanes.lane(i));
    log_weights.push_back(proposal.log_weight);
  }
  EXPECT_EQ(lane_digest(tilted, log_weights), kGoldenProposals[GetParam()])
      << std::hex << "proposal digest 0x" << lane_digest(tilted, log_weights);
}

TEST_P(EngineBatch, TransmitSymbolWindowIsTheLaneItKeys) {
  // Paper-exact windows (no guard) so dead-time carries cross windows.
  OpticalLinkConfig cfg = config_for(GetParam());
  cfg.inter_symbol_guard = Time::zero();
  RngStream process(1039);
  const OpticalLink link(cfg, process);
  const LinkEngine engine(link);
  const Time dead_time = link.detector().params().dead_time;
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;

  EngineBatchScratch scratch;
  RngStream tx(1049);
  LinkRunStats stats;
  Time start = Time::zero();
  Time dead_until = Time::zero();
  std::uint64_t carried = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const std::uint64_t symbol = (i * 13) & max_symbol;
    // The lane the window keys: one raw draw of a copy of the caller's
    // stream, mixed like lane 0 of the batched drivers' lane family.
    RngStream copy = tx;
    const BatchRngStream lanes(copy.engine()(), "engine-windows");
    WindowResult lane;
    lane.pulse_start_s = link.ppm().encode(symbol).seconds();
    lane.dead_in_s = (dead_until - start).seconds();
    carried += lane.dead_in_s > 0.0 ? 1 : 0;
    engine.simulate_windows({&lane, 1}, lanes, scratch);

    const LinkRunStats before = stats;
    const Time dead_before = dead_until;
    const std::uint64_t decoded =
        engine.transmit_symbol(symbol, start, dead_until, stats, tx);

    EXPECT_EQ(stats.rng_draws - before.rng_draws, lane.rng_draws);
    EXPECT_EQ(stats.erasures - before.erasures, lane.fired ? 0u : 1u);
    EXPECT_EQ(stats.noise_captures - before.noise_captures,
              lane.fired && !lane.first_is_signal ? 1u : 0u);
    if (lane.fired) {
      EXPECT_EQ(dead_until.seconds(),
                (start + Time::seconds(lane.last_fire_s) + dead_time).seconds());
      // The TDC conversion runs on the caller's stream right after the
      // key draw: decode the lane's timestamp the same way on the copy.
      const tdc::TdcReading reading =
          link.tdc().convert(Time::seconds(lane.first_observed_s), copy);
      const tdc::CalibrationLut& lut = link.calibration_lut();
      Time corrected =
          (lut.valid() ? lut.correct(reading, link.tdc().clock_period()) : reading.estimate) -
          link.detection_offset();
      if (corrected < Time::zero()) corrected = Time::zero();
      EXPECT_EQ(decoded, link.ppm().decode(corrected));
    } else {
      EXPECT_EQ(dead_until.seconds(), dead_before.seconds());
      EXPECT_EQ(decoded, 0u);
    }
    EXPECT_TRUE(copy.engine() == tx.engine());  // same caller-stream consumption
    start += link.symbol_period();
  }
  EXPECT_GT(carried, 0u);  // some windows started inside a blind carry
}

TEST_P(EngineBatch, LanesDecomposeToSingleWindowBatches) {
  RngStream process(1013);
  const OpticalLink link(config_for(GetParam()), process);
  const LinkEngine engine(link);
  const std::vector<WindowResult> base = make_windows(link, 64);
  const BatchRngStream lanes(0xDEC0113ull, "engine-batch-test");

  EngineBatchScratch scratch;
  std::vector<WindowResult> whole = base;
  engine.simulate_windows(whole, lanes, scratch);

  std::vector<WindowResult> singles = base;
  for (std::size_t i = 0; i < singles.size(); ++i) {
    engine.simulate_windows({&singles[i], 1}, lanes, scratch, i);
  }
  expect_same_windows(whole, singles);
}

TEST_P(EngineBatch, SplitBatchesMatchWholeBatch) {
  RngStream process(1019);
  const OpticalLink link(config_for(GetParam()), process);
  const LinkEngine engine(link);
  const std::vector<WindowResult> base = make_windows(link, 100);
  const BatchRngStream lanes(77110021ull, "engine-batch-test");

  EngineBatchScratch scratch;
  std::vector<WindowResult> whole = base;
  engine.simulate_windows(whole, lanes, scratch);

  std::vector<WindowResult> split = base;
  engine.simulate_windows(std::span<WindowResult>(split.data(), 60), lanes, scratch, 0);
  engine.simulate_windows(std::span<WindowResult>(split.data() + 60, 40), lanes, scratch,
                          60);
  expect_same_windows(whole, split);
}

TEST_P(EngineBatch, ThreadShardsMatchSingleThread) {
  RngStream process(1021);
  const OpticalLink link(config_for(GetParam()), process);
  const LinkEngine engine(link);
  constexpr std::size_t kLanes = 256;
  constexpr std::size_t kThreads = 8;
  const std::vector<WindowResult> base = make_windows(link, kLanes);
  const BatchRngStream lanes(424242ull, "engine-batch-test");

  EngineBatchScratch scratch;
  std::vector<WindowResult> single = base;
  engine.simulate_windows(single, lanes, scratch);

  // simulate_windows with a caller-owned scratch is const and
  // thread-safe: shard the same batch across 8 threads.
  std::vector<WindowResult> sharded = base;
  std::vector<std::thread> workers;
  constexpr std::size_t kShard = kLanes / kThreads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      EngineBatchScratch local;
      engine.simulate_windows(
          std::span<WindowResult>(sharded.data() + w * kShard, kShard), lanes, local,
          w * kShard);
    });
  }
  for (std::thread& t : workers) t.join();
  expect_same_windows(single, sharded);
}

INSTANTIATE_TEST_SUITE_P(Configs, EngineBatch, ::testing::Values(0, 1, 2, 3, 4));

// ---------- driver-level contracts ----------

TEST(EngineBatchDriver, SpeculativeCarryMatchesSequentialSimulation) {
  // Paper-exact windows (no guard) on a bright link make the dead time
  // spill past the symbol period whenever a pulse lands late in the
  // window -- the hostile case for the driver's flat-carry speculation.
  OpticalLinkConfig cfg = base_config();
  cfg.inter_symbol_guard = Time::zero();
  RngStream process(1031);
  const OpticalLink link(cfg, process);
  const LinkEngine engine(link);

  // Late/early alternation forces carry collisions; a counter-scrambled
  // tail mixes in every other slot (and crosses a batch boundary:
  // 600 > 2 x kEngineBatch).
  const std::uint64_t max_symbol = (std::uint64_t{1} << link.bits_per_symbol()) - 1;
  std::vector<std::uint64_t> symbols;
  for (std::size_t j = 0; j < 300; ++j) {
    symbols.push_back(link.ppm().symbol_for_slot(j % 2 == 0 ? 31 : 0));
  }
  util::CounterRng scramble(903u);
  for (std::size_t j = 0; j < 300; ++j) {
    symbols.push_back(scramble.next_u64() & max_symbol);
  }

  // Reference: window-by-window simulation with TRUE carries, using the
  // same root derivation as the batched driver.
  RngStream seed_a(1033);
  const std::uint64_t root = seed_a.engine()();
  const BatchRngStream lanes(root, "engine-windows");
  const double period_s = link.symbol_period().seconds();
  const double dead_s = link.detector().params().dead_time.seconds();
  EngineBatchScratch scratch;
  std::vector<bool> erased_seq;
  double carry = 0.0;
  for (std::size_t j = 0; j < symbols.size(); ++j) {
    WindowResult w;
    w.pulse_start_s = link.ppm().encode(symbols[j]).seconds();
    w.dead_in_s = carry;
    engine.simulate_windows({&w, 1}, lanes, scratch, j);
    erased_seq.push_back(!w.fired);
    carry = w.fired ? w.last_fire_s + dead_s - period_s : carry - period_s;
  }

  // Batched driver over the same symbols and the same seed.
  RngStream seed_b(1033);
  std::vector<bool> erased_batch;
  const LinkRunStats stats = engine.run_sequence(
      symbols, seed_b, [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
        erased_batch.push_back(out.erased);
      });

  EXPECT_EQ(erased_seq, erased_batch);
  EXPECT_GT(stats.erasures, 0u);  // the hostile case actually occurred
}

}  // namespace
