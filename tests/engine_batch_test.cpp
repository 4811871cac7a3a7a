// Window kernel contracts (kernels::simulate_windows and LinkEngine's
// batched driver), pinned bit-for-bit:
//
//  * Golden lanes -- every lane's outputs, draw count and (under a
//    proposal) log likelihood-ratio hash to a digest fixed across
//    commits: plain lanes, lanes with two aggressor pulses, and lanes
//    under tilted or band-conditioned proposals. The kernel is built
//    from exactly-rounded operations only, in a -ffp-contract=off TU,
//    so a changed digest means changed physics or RNG consumption,
//    which needs a kEngineRevision bump.
//  * Per-lane inputs -- a batch with per-lane scales, aggressors and a
//    proposal splits into one-lane batches bit for bit, and inputs at
//    their neutral values replay the plain batch draw for draw.
//  * Lane decomposability -- a lane's result is a pure function of
//    (engine config, stream root, lane index): batches can be split,
//    sharded across threads, or replayed lane-by-lane without changing
//    a single bit.
//  * Sequential-carry equivalence -- the batched driver's speculative
//    dead-time carry (flat speculation + lane replay on a phantom first
//    fire) reproduces exactly what a window-by-window sequential
//    simulation with true carries produces, decoded symbols included:
//    a conversion's coins continue its window's lane.
//
// The config matrix covers a bright link, a photon-starved noisy one,
// heavy afterpulsing, and a dim pulse longer than the dead time, whose
// fired source restarts at the dead-time horizon with envelope mass
// left.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
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
    case 2:  // heavy afterpulsing
      c.spad.afterpulse_probability = 0.05;
      break;
    default:  // a dim 50 ns pulse, longer than the 40 ns dead time
      c.led.pulse_width = Time::nanoseconds(50.0);
      c.led.peak_power = Power::nanowatts(20.0);
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
    EXPECT_EQ(a[i].log_weight, b[i].log_weight);
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

/// The driver's decoded symbol of a window simulated alone on lane
/// `lane`: its TDC conversion continues the lane past the window's
/// draws, and an erasure decodes to 0.
std::uint64_t decode_alone(const OpticalLink& link, const WindowResult& w,
                           const BatchRngStream& lanes, std::uint64_t lane) {
  if (!w.fired) return 0;
  util::CounterRng coins = lanes.lane(lane, w.rng_draws);
  return link.decide(link.tdc().convert(Time::seconds(w.first_observed_s), coins));
}

class EngineBatch : public ::testing::TestWithParam<int> {};

TEST_P(EngineBatch, GoldenLaneDigest) {
  // Captured at kEngineRevision 11, when a fired pulse began to restart
  // at the dead-time horizon. See the file header.
  constexpr std::uint64_t kGolden[] = {
      0xac8b082bc91cd4a7ull,  // bright rectangular
      0x4615e236917c4965ull,  // photon-starved and noisy
      0xbaa48f5e77ee5e7bull,  // heavy afterpulsing
      0x13141561e6f4ee15ull,  // dim pulse longer than the dead time
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

  // The same lanes through the batch call with per-lane inputs.
  // Captured at kEngineRevision 11.
  constexpr std::uint64_t kGoldenAggressors[] = {
      0x631b2576997b835bull,  // bright rectangular
      0x0b05539b37c1334eull,  // photon-starved and noisy
      0x0cd5baf4110816bfull,  // heavy afterpulsing
      0x9eef69bea4290633ull,  // dim pulse longer than the dead time
  };
  constexpr std::uint64_t kGoldenProposals[] = {
      0x704d8fa9e86dd597ull,  // bright rectangular
      0x8a4e13bf1f941d47ull,  // photon-starved and noisy
      0xfe9273b1fae03882ull,  // heavy afterpulsing
      0xec8daed2830c716eull,  // dim pulse longer than the dead time
  };
  const link::kernels::BatchParams& p = engine.kernel_params();
  const double window_s = link.toa_window().seconds();

  // Two aggressors with the victim's pulse: an early bright one and a
  // late dim one.
  std::vector<WindowResult> agg = make_windows(link, 261);
  std::vector<link::PulseSource> aggressors(2 * agg.size());
  for (std::size_t i = 0; i < agg.size(); ++i) {
    aggressors[2 * i].start_s = 0.25 * window_s;
    aggressors[2 * i].lambda = 3.0;
    aggressors[2 * i + 1].start_s = 0.6 * window_s;
    aggressors[2 * i + 1].lambda = 0.8;
  }
  link::kernels::simulate_windows(p, agg, lanes, 0, {.aggressors = aggressors});
  EXPECT_EQ(lane_digest(agg), kGoldenAggressors[GetParam()])
      << std::hex << "aggressor digest 0x" << lane_digest(agg);

  // Even lanes: jitter x1.5 and noise x3 tilt (scales off powers of two,
  // so the log ratios run pm_log's polynomial); odd lanes: jitter
  // conditioned to a deep band. One proposal per batch, so each lane is
  // a one-lane batch.
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
    link::kernels::simulate_windows(p, {&tilted[i], 1}, lanes, i, {.rare = &proposal});
    log_weights.push_back(tilted[i].log_weight);
  }
  EXPECT_EQ(lane_digest(tilted, log_weights), kGoldenProposals[GetParam()])
      << std::hex << "proposal digest 0x" << lane_digest(tilted, log_weights);
}

TEST_P(EngineBatch, PerLaneInputsSplitAndDefaultToThePlainBatch) {
  RngStream process(1051);
  const OpticalLink link(config_for(GetParam()), process);
  const LinkEngine engine(link);
  const link::kernels::BatchParams& p = engine.kernel_params();
  const double window_s = link.toa_window().seconds();
  constexpr std::size_t kLanes = 96;
  const std::vector<WindowResult> base = make_windows(link, kLanes);
  const BatchRngStream lanes(0x5EC7105ull, "engine-batch-test");

  // Dark, flaky, full and over-driven launches; two aggressors whose
  // starts move from lane to lane; a jitter and noise tilt.
  std::vector<double> scale(kLanes);
  std::vector<link::PulseSource> aggressors(2 * kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    scale[i] = std::array{0.0, 0.3, 1.0, 1.7}[i % 4];
    aggressors[2 * i].start_s = window_s * static_cast<double>(i % 11) / 11.0;
    aggressors[2 * i].lambda = 2.5;
    aggressors[2 * i + 1].start_s = window_s * static_cast<double>(i % 5) / 5.0;
    aggressors[2 * i + 1].lambda = 0.4;
  }
  link::RareSampling tilt;
  tilt.jitter_scale = 1.5;
  tilt.noise_scale = 3.0;
  const link::kernels::LaneInputs in{
      .signal_scale = scale, .aggressors = aggressors, .rare = &tilt};

  std::vector<WindowResult> whole = base;
  link::kernels::simulate_windows(p, whole, lanes, 0, in);
  std::vector<WindowResult> singles = base;
  for (std::size_t i = 0; i < kLanes; ++i) {
    link::kernels::simulate_windows(
        p, {&singles[i], 1}, lanes, i,
        {.signal_scale = std::span<const double>(scale).subspan(i, 1),
         .aggressors = std::span<link::PulseSource>(aggressors).subspan(2 * i, 2),
         .rare = &tilt});
  }
  expect_same_windows(whole, singles);
  double log_weight_sum = 0.0;
  for (const WindowResult& w : whole) log_weight_sum += std::abs(w.log_weight);
  EXPECT_GT(log_weight_sum, 0.0);  // the proposal really tilted

  // Inputs at their neutral values -- unit scales, zero-mean aggressors,
  // the identity proposal -- replay the plain batch draw for draw.
  EngineBatchScratch scratch;
  std::vector<WindowResult> plain = base;
  engine.simulate_windows(plain, lanes, scratch);
  const std::vector<double> ones(kLanes, 1.0);
  std::vector<link::PulseSource> silent(3 * kLanes);
  const link::RareSampling identity;
  for (const link::kernels::LaneInputs& neutral :
       {link::kernels::LaneInputs{}, link::kernels::LaneInputs{.signal_scale = ones},
        link::kernels::LaneInputs{.aggressors = silent},
        link::kernels::LaneInputs{.rare = &identity}}) {
    std::vector<WindowResult> ws = base;
    link::kernels::simulate_windows(p, ws, lanes, 0, neutral);
    expect_same_windows(plain, ws);
  }
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

INSTANTIATE_TEST_SUITE_P(Configs, EngineBatch, ::testing::Values(0, 1, 2, 3));

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
  std::vector<std::uint64_t> decoded_seq;
  double carry = 0.0;
  for (std::size_t j = 0; j < symbols.size(); ++j) {
    WindowResult w;
    w.pulse_start_s = link.ppm().encode(symbols[j]).seconds();
    w.dead_in_s = carry;
    engine.simulate_windows({&w, 1}, lanes, scratch, j);
    erased_seq.push_back(!w.fired);
    decoded_seq.push_back(decode_alone(link, w, lanes, j));
    carry = w.fired ? w.last_fire_s + dead_s - period_s : carry - period_s;
  }

  // Batched driver over the same symbols and the same seed.
  RngStream seed_b(1033);
  std::vector<bool> erased_batch;
  std::vector<std::uint64_t> decoded_batch;
  const LinkRunStats stats = engine.run_sequence(
      symbols, seed_b, [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
        erased_batch.push_back(out.erased);
        decoded_batch.push_back(out.decoded);
      });

  EXPECT_EQ(erased_seq, erased_batch);
  EXPECT_EQ(decoded_seq, decoded_batch);
  EXPECT_GT(stats.erasures, 0u);  // the hostile case actually occurred
}

TEST(EngineBatchDriver, WindowInputsFollowTheSequentialSimulation) {
  // Per-window inputs ride the same speculation and repair: window j,
  // with its launch scale, aggressor and the proposal, is lane j run
  // alone with the true carry -- or with none for independent windows.
  OpticalLinkConfig cfg = base_config();
  cfg.inter_symbol_guard = Time::zero();
  RngStream process(1061);
  const OpticalLink link(cfg, process);
  const LinkEngine engine(link);
  const link::kernels::BatchParams& p = engine.kernel_params();
  const double window_s = link.toa_window().seconds();
  const double period_s = link.symbol_period().seconds();
  const double dead_s = link.detector().params().dead_time.seconds();

  constexpr std::size_t kWindows = 600;  // crosses two batch boundaries
  std::vector<std::uint64_t> symbols(kWindows);
  std::vector<double> scale(kWindows);
  std::vector<double> starts(kWindows);
  for (std::size_t j = 0; j < kWindows; ++j) {
    symbols[j] = link.ppm().symbol_for_slot(j % 2 == 0 ? 31 : 0);
    scale[j] = std::array{1.0, 0.5, 0.0, 1.0}[j % 4];
    starts[j] = window_s * static_cast<double>(j % 7) / 7.0;
  }
  const std::array<double, 1> means{4.0};
  link::RareSampling tilt;
  tilt.jitter_scale = 1.5;

  for (const bool independent : {false, true}) {
    SCOPED_TRACE(independent ? "independent windows" : "carried windows");
    RngStream seed_a(1063);
    const BatchRngStream lanes(seed_a.engine()(), LinkEngine::kWindowLanes);
    std::vector<bool> erased_seq;
    std::vector<std::uint64_t> decoded_seq;
    std::vector<double> weights_seq;
    double carry = 0.0;
    for (std::size_t j = 0; j < kWindows; ++j) {
      WindowResult w;
      w.pulse_start_s = link.ppm().encode(symbols[j]).seconds();
      w.dead_in_s = independent ? 0.0 : carry;
      link::PulseSource aggressor;
      aggressor.start_s = starts[j];
      aggressor.lambda = means[0] * link.detector().pdp();
      link::kernels::simulate_windows(
          p, {&w, 1}, lanes, j,
          {.signal_scale = {&scale[j], 1}, .aggressors = {&aggressor, 1}, .rare = &tilt});
      erased_seq.push_back(!w.fired);
      decoded_seq.push_back(decode_alone(link, w, lanes, j));
      weights_seq.push_back(w.log_weight);
      carry = w.fired ? w.last_fire_s + dead_s - period_s : carry - period_s;
    }

    RngStream seed_b(1063);
    std::vector<bool> erased_batch;
    std::vector<std::uint64_t> decoded_batch;
    std::vector<double> weights_batch;
    const LinkRunStats stats = engine.run_sequence(
        symbols, seed_b,
        [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
          erased_batch.push_back(out.erased);
          decoded_batch.push_back(out.decoded);
          weights_batch.push_back(out.log_weight);
        },
        {.signal_scale = scale,
         .aggressor_means = means,
         .aggressor_starts_s = starts,
         .rare = &tilt,
         .independent = independent});

    EXPECT_EQ(erased_seq, erased_batch);
    EXPECT_EQ(decoded_seq, decoded_batch);
    EXPECT_EQ(weights_seq, weights_batch);
    EXPECT_GT(stats.erasures, 0u);
  }
}

TEST(EngineBatchDriver, FiredShortPulseRestartsWithoutADraw) {
  // A bright 300 ps rectangular pulse ends inside the 40 ns dead time,
  // so under active quench the fired signal restarts past its envelope
  // and draws nothing more: each lane spends its signal hazard, first
  // noise arrival, jitter and a failed afterpulse coin -- 4 draws.
  OpticalLinkConfig cfg = base_config();
  cfg.spad.afterpulse_probability = 1e-12;
  RngStream process(1087);
  const OpticalLink link(cfg, process);
  const LinkEngine engine(link);
  std::vector<WindowResult> ws = make_windows(link, 256);
  for (WindowResult& w : ws) w.dead_in_s = 0.0;
  EngineBatchScratch scratch;
  engine.simulate_windows(ws, BatchRngStream(1091u, "engine-batch-test"), scratch);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    EXPECT_TRUE(ws[i].fired && ws[i].first_is_signal);
    EXPECT_EQ(ws[i].rng_draws, 4u);
  }
}

TEST(EngineBatchDriver, FixedAggressorStartsApplyToEveryWindow) {
  // One start per aggressor is the per-window span with every window's
  // row equal, bit for bit.
  RngStream process(1073);
  const OpticalLink link(base_config(), process);
  const LinkEngine engine(link);
  const double window_s = link.toa_window().seconds();
  constexpr std::size_t kWindows = 600;  // crosses two batch boundaries
  const std::array<double, 2> means{3.0, 0.8};
  const std::array<double, 2> fixed{0.25 * window_s, 0.6 * window_s};
  std::vector<double> expanded;
  for (std::size_t j = 0; j < kWindows; ++j) {
    expanded.insert(expanded.end(), fixed.begin(), fixed.end());
  }
  const auto run = [&](std::span<const double> starts,
                       std::vector<LinkEngine::SymbolOutcome>& out) {
    RngStream tx(1079);
    return engine.run_symbols(
        kWindows, tx,
        [&](std::uint64_t, const LinkEngine::SymbolOutcome& o) { out.push_back(o); },
        {.aggressor_means = means, .aggressor_starts_s = starts});
  };
  std::vector<LinkEngine::SymbolOutcome> a;
  std::vector<LinkEngine::SymbolOutcome> b;
  const LinkRunStats sa = run(fixed, a);
  const LinkRunStats sb = run(expanded, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    SCOPED_TRACE("window " + std::to_string(j));
    EXPECT_EQ(a[j].sent, b[j].sent);
    EXPECT_EQ(a[j].decoded, b[j].decoded);
    EXPECT_EQ(a[j].erased, b[j].erased);
    EXPECT_EQ(a[j].noise_capture, b[j].noise_capture);
  }
  EXPECT_EQ(sa.symbol_errors, sb.symbol_errors);
  EXPECT_EQ(sa.bit_errors, sb.bit_errors);
  EXPECT_EQ(sa.rng_draws, sb.rng_draws);
  EXPECT_GT(sa.noise_captures, 0u);  // the early aggressor wins windows
  EXPECT_EQ(sa.noise_captures, sb.noise_captures);
}

TEST(EngineBatchDriver, RejectsPerWindowInputsOfTheWrongLength) {
  RngStream process(1069);
  const OpticalLink link(base_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1071);
  const std::vector<double> three(3, 1.0);
  const std::array<double, 1> mean{2.0};
  EXPECT_THROW((void)engine.measure(4, tx, {.signal_scale = three}), std::invalid_argument);
  EXPECT_THROW((void)engine.measure(4, tx, {.aggressor_means = mean, .aggressor_starts_s = three}),
               std::invalid_argument);
  EXPECT_THROW((void)engine.measure(4, tx, {.aggressor_starts_s = three}), std::invalid_argument);
  EXPECT_EQ(engine.measure(3, tx, {.aggressor_means = mean, .aggressor_starts_s = three})
                .symbols_sent,
            3u);
  // One start per aggressor serves any window count.
  EXPECT_EQ(engine.measure(4, tx, {.aggressor_means = mean, .aggressor_starts_s = mean})
                .symbols_sent,
            4u);
}

}  // namespace
