// The rare-event acceleration subsystem: level-schedule parsing, band
// resolution, deep-band jitter conditioning in the window kernel,
// likelihood-ratio weight invariants, agreement of the
// tilted/split estimators with crude MC in the overlap region (and with
// each other at a deep point crude MC cannot reach), and the end-to-end
// scenario contract -- thread-count invariance, zero-success Wilson
// upper bounds, and the effective-sample speedup at a deep-SER point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "oci/link/kernels.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/rare/rare.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/util/random.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;

// ---------- level-schedule parsing ----------

TEST(RareLevels, ParsesColonSeparatedDecreasing) {
  EXPECT_EQ(rare::parse_levels("3:2:1"), (std::vector<double>{3.0, 2.0, 1.0}));
  EXPECT_EQ(rare::parse_levels("2.5"), (std::vector<double>{2.5}));
  EXPECT_EQ(rare::parse_levels("4:1.5:0"), (std::vector<double>{4.0, 1.5, 0.0}));
  EXPECT_TRUE(rare::parse_levels("").empty());
}

TEST(RareLevels, RejectsMalformedSchedules) {
  EXPECT_THROW((void)rare::parse_levels("3:x:1"), std::invalid_argument);
  EXPECT_THROW((void)rare::parse_levels("1:2:3"), std::invalid_argument);  // increasing
  EXPECT_THROW((void)rare::parse_levels("2:2"), std::invalid_argument);    // not strict
  EXPECT_THROW((void)rare::parse_levels("-1"), std::invalid_argument);
  EXPECT_THROW((void)rare::parse_levels("3:"), std::invalid_argument);
  EXPECT_THROW((void)rare::parse_levels("nan"), std::invalid_argument);
  EXPECT_THROW((void)rare::parse_levels("3;2"), std::invalid_argument);
}

// ---------- band resolution ----------

TEST(RareBands, ExplicitLevelsPartitionUnitMass) {
  rare::RareSpec spec;
  spec.kind = rare::Kind::kSplit;
  spec.levels = "3:2:1";
  // Boundary at 312 ps / 60 ps = 5.2 sigma: thresholds 2.2, 3.2, 4.2.
  const auto bands = rare::resolve_bands(spec, 312e-12, 60e-12);
  ASSERT_EQ(bands.size(), 4u);
  double mass = 0.0;
  for (const auto& b : bands) {
    EXPECT_GT(b.mass, 0.0);
    EXPECT_GT(b.survival_lo, b.survival_hi);  // strictly nested strata
    mass += b.mass;
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
  // Outermost band covers the centre (survival down from 1), innermost
  // reaches the tail (survival down to 0).
  EXPECT_DOUBLE_EQ(bands.front().survival_lo, 1.0);
  EXPECT_DOUBLE_EQ(bands.back().survival_hi, 0.0);
}

TEST(RareBands, AutoScheduleHonoursSplitLevels) {
  rare::RareSpec spec;
  spec.kind = rare::Kind::kSplit;
  spec.split_levels = 6;
  const auto bands = rare::resolve_bands(spec, 312e-12, 60e-12);
  EXPECT_EQ(bands.size(), 7u);  // K thresholds -> K + 1 strata
}

TEST(RareBands, DegenerateSigmaCollapsesToCrude) {
  rare::RareSpec spec;
  spec.kind = rare::Kind::kSplit;
  spec.levels = "3:2:1";
  const auto bands = rare::resolve_bands(spec, 312e-12, 0.0);
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_DOUBLE_EQ(bands[0].mass, 1.0);
}

// ---------- run_chunk invariants ----------

/// The deep_ser.spec receiver chain, calibration off for test speed.
link::OpticalLinkConfig deep_config(double jitter_ps) {
  link::OpticalLinkConfig c;
  c.bits_per_symbol = 8;
  c.channel_transmittance = 0.8;
  c.led.peak_power = util::Power::microwatts(50.0);
  c.led.pulse_width = Time::picoseconds(100.0);
  c.spad.dcr_at_ref = util::Frequency::hertz(10.0);
  c.spad.jitter_sigma = Time::picoseconds(jitter_ps);
  c.calibrate = false;
  return c;
}

rare::ChunkResult run_rare(const link::OpticalLink& link, const rare::RareSpec& spec,
                           std::uint64_t samples, std::uint64_t seed) {
  RngStream rng(seed, "chunk");
  return rare::run_chunk(link, spec, samples, /*point_index=*/0, rng);
}

/// Weighted SER of a chunk and its estimator variance (delta method on
/// the weighted mean of the error indicator).
struct WeightedRate {
  double p = 0.0;
  double var = 0.0;
};
WeightedRate weighted_ser(const rare::ChunkResult& r) {
  const auto n = static_cast<double>(r.samples);
  WeightedRate w;
  w.p = (r.w_symbol_errors + r.w_erasures) / n;
  w.var = (r.err_weight_sq / n - w.p * w.p) / n;
  return w;
}

/// Two-sample z-test between estimators with known variances.
::testing::AssertionResult SersConsistent(const WeightedRate& a, const WeightedRate& b,
                                          double alpha) {
  const double se = std::sqrt(std::max(a.var, 0.0) + std::max(b.var, 0.0));
  if (se == 0.0) {
    if (a.p == b.p) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "degenerate rates differ";
  }
  const double z = (a.p - b.p) / se;
  const double z_crit = oci::test::normal_quantile(1.0 - alpha / 2.0);
  if (std::abs(z) <= z_crit) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "weighted rates " << a.p << " and " << b.p << " differ with |z| = "
         << std::abs(z) << " > " << z_crit;
}

TEST(RareChunk, IsAPureFunctionOfTheStreamKey) {
  RngStream process(11, "process");
  const link::OpticalLink link(deep_config(100.0), process);
  rare::RareSpec tilt;
  tilt.kind = rare::Kind::kTilt;
  tilt.jitter_tilt = 1.8;
  const auto a = run_rare(link, tilt, 4000, 99);
  const auto b = run_rare(link, tilt, 4000, 99);
  EXPECT_EQ(a.w_symbol_errors, b.w_symbol_errors);
  EXPECT_EQ(a.weights.sum(), b.weights.sum());
  EXPECT_EQ(a.weights.sum_sq(), b.weights.sum_sq());
  EXPECT_EQ(a.rng_draws, b.rng_draws);

  const auto c = run_rare(link, tilt, 4000, 100);  // different chunk stream
  EXPECT_NE(a.weights.sum(), c.weights.sum());
}

TEST(RareChunk, TiltWeightsAverageToOne) {
  // E[w] = 1 under the proposal: the empirical mean must sit within a
  // few standard errors of 1 (weight_cv bounds the spread).
  RngStream process(12, "process");
  const link::OpticalLink link(deep_config(100.0), process);
  rare::RareSpec tilt;
  tilt.kind = rare::Kind::kTilt;
  tilt.jitter_tilt = 1.8;
  tilt.noise_tilt = 4.0;
  const auto r = run_rare(link, tilt, 20000, 7);
  const auto n = static_cast<double>(r.samples);
  const double mean_w = r.weights.sum() / n;
  const double se = r.weights.weight_cv() * mean_w / std::sqrt(n);
  EXPECT_NEAR(mean_w, 1.0, 5.0 * se);
  EXPECT_GT(r.weights.n_eff(), 0.0);
  EXPECT_LT(r.weights.n_eff(), n + 0.5);  // Kish n_eff <= n always
}

TEST(RareChunk, SplitWeightsSumToSampleCountExactly) {
  // Stratified weights mass_b * samples / n_b sum to `samples` by
  // construction -- the deterministic analogue of E[w] = 1.
  RngStream process(13, "process");
  const link::OpticalLink link(deep_config(60.0), process);
  rare::RareSpec split;
  split.kind = rare::Kind::kSplit;
  split.split_levels = 4;
  const auto r = run_rare(link, split, 10000, 21);
  EXPECT_NEAR(r.weights.sum(), static_cast<double>(r.samples),
              1e-9 * static_cast<double>(r.samples));
}

TEST(RareChunk, SplitJitterStaysInsideADeepBand) {
  // A band 7..8 sigma out, where a single-precision erfinv polynomial
  // is off by 0.04-0.5 sigma: every conditioned jitter magnitude must
  // land inside the band, and half of them above its median.
  RngStream process(14, "process");
  const link::OpticalLink link(deep_config(60.0), process);
  const link::LinkEngine engine(link);
  const link::kernels::BatchParams& p = engine.kernel_params();
  const auto survival = [](double z) { return std::erfc(z / std::sqrt(2.0)); };
  link::RareSampling proposal;
  proposal.condition_jitter = true;
  proposal.band_survival_lo = survival(7.0);
  proposal.band_survival_hi = survival(8.0);
  const double median_s = 0.5 * (proposal.band_survival_lo + proposal.band_survival_hi);
  double lo = 7.0;
  double hi = 8.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (survival(mid) > median_s ? lo : hi) = mid;
  }
  const double z_median = 0.5 * (lo + hi);

  const util::BatchRngStream lanes(15, "deep-band");
  std::vector<link::WindowResult> windows(4000);
  for (link::WindowResult& w : windows) w.pulse_start_s = 1e-9;
  link::kernels::simulate_windows(p, windows, lanes, 0, {.rare = &proposal});
  std::uint64_t fired = 0;
  std::uint64_t above = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const link::WindowResult& w = windows[i];
    if (!w.fired) continue;
    ++fired;
    const double z = std::abs(w.first_observed_s - w.first_fire_s) / p.jitter_sigma_s;
    ASSERT_GE(z, 7.0 - 1e-6) << "lane " << i;
    ASSERT_LE(z, 8.0 + 1e-6) << "lane " << i;
    above += z > z_median ? 1 : 0;
  }
  EXPECT_GT(fired, 3900u);  // a bright pulse: the first fire is there
  EXPECT_RATE_NEAR(above, fired, 0.5, 1e-4);
}

TEST(RareChunk, TiltAgreesWithCrudeAcrossOverlapConfigs) {
  // Three operating points where crude MC still observes plenty of
  // errors (SER 1e-3..1e-2): the tilted estimator must agree with the
  // crude one by a two-sample z-test at every point.
  for (const double jitter_ps : {100.0, 110.0, 120.0}) {
    RngStream process(14, "process");
    const link::OpticalLink link(deep_config(jitter_ps), process);

    RngStream tx(15, "tx");
    const auto crude = link.measure(60000, tx);
    WeightedRate c;
    c.p = crude.symbol_error_rate();
    c.var = c.p * (1.0 - c.p) / static_cast<double>(crude.symbols_sent);

    rare::RareSpec tilt;
    tilt.kind = rare::Kind::kTilt;
    tilt.jitter_tilt = 1.7;
    const auto r = run_rare(link, tilt, 60000, 16);
    EXPECT_TRUE(SersConsistent(weighted_ser(r), c, 0.001))
        << "at jitter_ps=" << jitter_ps;
  }
}

TEST(RareChunk, SplitAgreesWithCrudeAcrossOverlapConfigs) {
  for (const double jitter_ps : {100.0, 110.0, 120.0}) {
    RngStream process(17, "process");
    const link::OpticalLink link(deep_config(jitter_ps), process);

    RngStream tx(18, "tx");
    const auto crude = link.measure(60000, tx);
    WeightedRate c;
    c.p = crude.symbol_error_rate();
    c.var = c.p * (1.0 - c.p) / static_cast<double>(crude.symbols_sent);

    rare::RareSpec split;
    split.kind = rare::Kind::kSplit;
    split.split_levels = 4;
    const auto r = run_rare(link, split, 60000, 19);
    EXPECT_TRUE(SersConsistent(weighted_ser(r), c, 0.001))
        << "at jitter_ps=" << jitter_ps;
  }
}

TEST(RareChunk, TiltAndSplitAgreeWhereCrudeObservesNothing) {
  // 60 ps: the true SER is ~5e-7 -- no crude budget here sees an error.
  // The two INDEPENDENT accelerated estimators must both report a
  // nonzero rate and agree with each other.
  RngStream process(20, "process");
  const link::OpticalLink link(deep_config(60.0), process);

  rare::RareSpec tilt;
  tilt.kind = rare::Kind::kTilt;
  tilt.jitter_tilt = 2.2;
  const auto rt = run_rare(link, tilt, 60000, 23);

  rare::RareSpec split;
  split.kind = rare::Kind::kSplit;
  split.levels = "3:2:1:0.5";
  const auto rs = run_rare(link, split, 60000, 24);

  const WeightedRate wt = weighted_ser(rt);
  const WeightedRate ws = weighted_ser(rs);
  EXPECT_GT(wt.p, 0.0);
  EXPECT_GT(ws.p, 0.0);
  EXPECT_LT(wt.p, 1e-4);  // genuinely deep
  EXPECT_TRUE(SersConsistent(wt, ws, 0.001));
}

// ---------- end-to-end scenario behaviour ----------

scenario::ScenarioSpec rare_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "rare_e2e";
  spec.seed = 808;
  spec.device = deep_config(60.0);
  spec.budget.samples = 4000;
  spec.budget.repro_scaled = false;
  return spec;
}

TEST(RareScenario, TiltedSweepIsThreadCountInvariant) {
  scenario::ScenarioSpec spec = rare_spec();
  spec.variance.jitter_tilt = 2.0;
  spec.sweep = {scenario::SweepAxis::list("jitter_ps", {60.0, 110.0}),
                scenario::SweepAxis::categories("variance.kind", {"none", "tilt"})};
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport eight = scenario::ScenarioRunner(8).run(spec);
  ASSERT_EQ(one.points.size(), eight.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, eight.points[i].metrics);
    EXPECT_EQ(one.points[i].rng_draws, eight.points[i].rng_draws);
    EXPECT_EQ(one.points[i].weights.sum(), eight.points[i].weights.sum());
    EXPECT_EQ(one.points[i].weights.sum_sq(), eight.points[i].weights.sum_sq());
    EXPECT_EQ(one.points[i].err_weight_sq, eight.points[i].err_weight_sq);
  }
}

TEST(RareScenario, SplitSweepIsThreadCountInvariant) {
  scenario::ScenarioSpec spec = rare_spec();
  spec.variance.kind = rare::Kind::kSplit;
  spec.variance.split_levels = 3;
  spec.sweep = {scenario::SweepAxis::list("jitter_ps", {60.0, 110.0})};
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport eight = scenario::ScenarioRunner(8).run(spec);
  ASSERT_EQ(one.points.size(), eight.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, eight.points[i].metrics);
    EXPECT_EQ(one.points[i].weights.sum(), eight.points[i].weights.sum());
  }
}

TEST(RareScenario, ZeroSuccessRateReportsWilsonUpperBound) {
  // Crude MC at the deep point: zero observed errors must surface as a
  // one-sided interval, not a bare "0".
  scenario::ScenarioSpec spec = rare_spec();
  const scenario::RunReport r = scenario::ScenarioRunner().run(spec);
  ASSERT_EQ(r.points.size(), 1u);
  const analysis::Estimate& ser = r.estimate(r.points[0], "ser");
  EXPECT_EQ(ser.value, 0.0);
  EXPECT_GT(ser.ci_high, 0.0);
  EXPECT_GT(ser.n_samples, 0u);
  // ...and the printed table renders the bound, not "0.0000".
  std::ostringstream table;
  r.to_table().print(table);
  EXPECT_NE(table.str().find('<'), std::string::npos);
}

TEST(RareScenario, DeepPointBeatsCrudeTwentyFoldInEffectiveSamples) {
  // The acceptance bar: at a 1e-6-class point the tilted estimator's
  // variance corresponds to >= 20x the crude-MC sample budget (the
  // trajectory bench abl_rare records the wall-clock-normalised figure).
  scenario::ScenarioSpec spec = rare_spec();
  spec.variance.kind = rare::Kind::kTilt;
  spec.variance.jitter_tilt = 2.0;
  spec.budget.samples = 20000;
  const scenario::RunReport r = scenario::ScenarioRunner().run(spec);
  ASSERT_EQ(r.points.size(), 1u);
  const scenario::RunPoint& p = r.points[0];
  ASSERT_TRUE(p.weights.active());
  const double phat = r.metric(p, "ser");
  ASSERT_GT(phat, 0.0);
  const auto n = static_cast<double>(p.samples);
  const double var_acc = (p.err_weight_sq / n - phat * phat) / n;
  const double var_crude = phat * (1.0 - phat) / n;
  ASSERT_GT(var_acc, 0.0);
  EXPECT_GE(var_crude / var_acc, 20.0);
}

TEST(RareScenario, WeightedEstimateAgreesWithCrudeInOverlap) {
  // End-to-end overlap cross-validation through the full runner stack
  // (chunking, accumulators, report assembly), not just run_chunk. Two
  // single-point runs under the SAME seed simulate the SAME chip (the
  // uncalibrated mismatch forks off the point stream, and the point
  // index is 0 in both) -- a kind sweep would compare different chips.
  scenario::ScenarioSpec spec = rare_spec();
  spec.device.spad.jitter_sigma = Time::picoseconds(115.0);
  spec.budget.samples = 40000;
  const scenario::RunReport crude = scenario::ScenarioRunner().run(spec);
  spec.variance.kind = rare::Kind::kTilt;
  spec.variance.jitter_tilt = 1.7;
  const scenario::RunReport tilted = scenario::ScenarioRunner().run(spec);
  ASSERT_EQ(crude.points.size(), 1u);
  ASSERT_EQ(tilted.points.size(), 1u);
  const scenario::RunPoint& cp = crude.points[0];
  const scenario::RunPoint& tp = tilted.points[0];
  WeightedRate c;
  c.p = crude.metric(cp, "ser");
  c.var = c.p * (1.0 - c.p) / static_cast<double>(cp.samples);
  WeightedRate w;
  w.p = tilted.metric(tp, "ser");
  w.var = (tp.err_weight_sq / static_cast<double>(tp.samples) - w.p * w.p) /
          static_cast<double>(tp.samples);
  EXPECT_GT(c.p, 0.0);  // genuinely in the overlap region
  EXPECT_TRUE(SersConsistent(w, c, 0.001));
}

}  // namespace
