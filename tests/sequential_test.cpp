// Unit tests for the adaptive-precision statistics layer
// (oci/analysis/sequential.hpp): Wilson intervals against known
// values, the streaming rate/mean accumulators, and the stopping
// rules that drive ScenarioRunner's chunked sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "oci/analysis/sequential.hpp"

namespace {

using oci::analysis::Estimate;
using oci::analysis::MeanAccumulator;
using oci::analysis::RateAccumulator;
using oci::analysis::StoppingRule;
using oci::analysis::wilson_estimate;

TEST(WilsonEstimate, MatchesKnownValues) {
  // 50/100 at 95%: the textbook Wilson interval [0.4038, 0.5962].
  const Estimate e = wilson_estimate(50.0, 100);
  EXPECT_DOUBLE_EQ(e.value, 0.5);
  EXPECT_NEAR(e.ci_low, 0.4038, 5e-4);
  EXPECT_NEAR(e.ci_high, 0.5962, 5e-4);
  EXPECT_EQ(e.n_samples, 100u);
  EXPECT_NEAR(e.half_width(), 0.0962, 5e-4);
}

TEST(WilsonEstimate, ZeroSuccessesKeepInformativeUpperBound) {
  // p-hat = 0: the interval is [0, z^2/(n+z^2)] -- nonzero width, the
  // whole point of preferring Wilson for rare events.
  const Estimate e = wilson_estimate(0.0, 100);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
  EXPECT_DOUBLE_EQ(e.ci_low, 0.0);
  EXPECT_NEAR(e.ci_high, 3.8416 / 103.8416, 1e-4);
}

TEST(WilsonEstimate, HandlesEdgeCases) {
  const Estimate empty = wilson_estimate(0.0, 0);
  EXPECT_EQ(empty.n_samples, 0u);
  EXPECT_DOUBLE_EQ(empty.half_width(), 0.0);

  // Fractional successes (a rate folded over an approximate trial
  // count, e.g. BER per symbol) stay well-defined.
  const Estimate frac = wilson_estimate(2.5, 1000);
  EXPECT_DOUBLE_EQ(frac.value, 0.0025);
  EXPECT_GT(frac.ci_high, frac.value);
  EXPECT_LT(frac.ci_low, frac.value);
  EXPECT_GE(frac.ci_low, 0.0);

  // All successes: upper bound pinned at 1.
  const Estimate full = wilson_estimate(100.0, 100);
  EXPECT_DOUBLE_EQ(full.ci_high, 1.0);
  EXPECT_NEAR(full.ci_low, 1.0 - 3.8416 / 103.8416, 1e-4);
}

TEST(RateAccumulator, PoolsChunkCounts) {
  RateAccumulator acc;
  acc.add(0.1, 1000);
  acc.add(0.3, 1000);
  EXPECT_EQ(acc.trials(), 2000u);
  EXPECT_DOUBLE_EQ(acc.successes(), 400.0);

  const Estimate pooled = acc.wilson();
  const Estimate direct = wilson_estimate(400.0, 2000);
  EXPECT_DOUBLE_EQ(pooled.value, direct.value);
  EXPECT_DOUBLE_EQ(pooled.ci_low, direct.ci_low);
  EXPECT_DOUBLE_EQ(pooled.ci_high, direct.ci_high);
}

TEST(RateAccumulator, EmptyIsSafe) {
  const RateAccumulator acc;
  EXPECT_EQ(acc.wilson().n_samples, 0u);
}

TEST(MeanAccumulator, BatchMeansInterval) {
  MeanAccumulator acc;
  for (const double m : {1.0, 2.0, 3.0, 4.0}) acc.add(m, 100);
  EXPECT_EQ(acc.chunks(), 4u);
  EXPECT_EQ(acc.samples(), 400u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);

  const Estimate e = acc.interval();
  EXPECT_EQ(e.n_samples, 400u);
  // stddev({1,2,3,4}) = sqrt(5/3); margin = z * stddev / sqrt(4).
  const double margin = 1.96 * std::sqrt(5.0 / 3.0) / 2.0;
  EXPECT_NEAR(e.ci_low, 2.5 - margin, 1e-9);
  EXPECT_NEAR(e.ci_high, 2.5 + margin, 1e-9);
}

TEST(MeanAccumulator, SingleChunkHasNoSpreadInformation) {
  MeanAccumulator acc;
  acc.add(7.25, 500);
  const Estimate e = acc.interval();
  EXPECT_DOUBLE_EQ(e.value, 7.25);
  EXPECT_DOUBLE_EQ(e.half_width(), 0.0);
  EXPECT_EQ(e.n_samples, 500u);
}

// -- Reconstruction edge cases (result store / report merge path) -------

TEST(RateAccumulator, FromCountsSanitizesGarbledState) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // A garbled success count reads as zero successes over the recorded
  // trials -- the interval stays finite instead of poisoning merges.
  RateAccumulator garbled = RateAccumulator::from_counts(nan, 100);
  EXPECT_EQ(garbled.trials(), 100u);
  EXPECT_DOUBLE_EQ(garbled.successes(), 0.0);
  const Estimate e = garbled.wilson();
  EXPECT_TRUE(std::isfinite(e.ci_low));
  EXPECT_TRUE(std::isfinite(e.ci_high));
  EXPECT_GE(e.ci_high, e.ci_low);

  // Negative counts (impossible for a binomial) clamp to zero too.
  const RateAccumulator negative = RateAccumulator::from_counts(-3.0, 10);
  EXPECT_DOUBLE_EQ(negative.successes(), 0.0);

  // The sanitized state merges like any other accumulator.
  RateAccumulator pooled = RateAccumulator::from_counts(5.0, 10);
  pooled.merge(garbled);
  EXPECT_EQ(pooled.trials(), 110u);
  EXPECT_DOUBLE_EQ(pooled.successes(), 5.0);
}

TEST(RateAccumulator, WilsonTreatsNonFiniteSuccessesAsZero) {
  // Direct estimator call, not just the accumulator path: std::clamp
  // propagates NaN, so the estimator needs its own finite guard.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    const Estimate w = wilson_estimate(bad, 50);
    EXPECT_TRUE(std::isfinite(w.value)) << bad;
    EXPECT_TRUE(std::isfinite(w.ci_low) && std::isfinite(w.ci_high)) << bad;
  }
}

TEST(MeanAccumulator, FromStateWithZeroChunksIsTheEmptyAccumulator) {
  // A zero-sample point round-tripped through a report legitimately
  // serializes zero chunks; reconstruction must hand back the EMPTY
  // accumulator, not moments that NaN every merge they touch.
  const MeanAccumulator empty = MeanAccumulator::from_state(0, 0.0, 0.0, 0);
  EXPECT_EQ(empty.chunks(), 0u);
  EXPECT_EQ(empty.samples(), 0u);
  const Estimate e = empty.interval();
  EXPECT_TRUE(std::isfinite(e.value));
  EXPECT_DOUBLE_EQ(e.half_width(), 0.0);

  // Merging the empty reconstruction into live state is a no-op.
  MeanAccumulator live;
  live.add(2.0, 100);
  live.add(4.0, 100);
  const Estimate before = live.interval();
  live.merge(empty);
  const Estimate after = live.interval();
  EXPECT_DOUBLE_EQ(after.value, before.value);
  EXPECT_DOUBLE_EQ(after.ci_low, before.ci_low);
  EXPECT_DOUBLE_EQ(after.ci_high, before.ci_high);
  EXPECT_EQ(after.n_samples, before.n_samples);
}

TEST(MeanAccumulator, FromStateSanitizesGarbledMoments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Non-finite moments reconstruct as empty rather than contagious NaN.
  for (const MeanAccumulator acc : {MeanAccumulator::from_state(3, nan, 1.0, 300),
                                    MeanAccumulator::from_state(3, 1.0, nan, 300)}) {
    EXPECT_EQ(acc.chunks(), 0u);
    EXPECT_TRUE(std::isfinite(acc.interval().value));
  }

  // A (numerically impossible) negative M2 clamps to zero spread: the
  // interval collapses to the mean instead of widening to NaN.
  const MeanAccumulator clamped = MeanAccumulator::from_state(4, 2.5, -1e-9, 400);
  EXPECT_EQ(clamped.chunks(), 4u);
  const Estimate e = clamped.interval();
  EXPECT_DOUBLE_EQ(e.value, 2.5);
  EXPECT_TRUE(std::isfinite(e.ci_low) && std::isfinite(e.ci_high));
  EXPECT_DOUBLE_EQ(e.half_width(), 0.0);
}

TEST(StoppingRule, AbsoluteHalfWidthTarget) {
  StoppingRule rule;
  rule.target_half_width = 0.01;
  EXPECT_TRUE(rule.should_stop({0.2, 0.195, 0.205, 1000}));   // h = 0.005
  EXPECT_FALSE(rule.should_stop({0.2, 0.15, 0.25, 1000}));    // h = 0.05
}

TEST(StoppingRule, RelativeTargetNeverFiresAtZero) {
  StoppingRule rule;
  rule.target_relative = 0.1;
  EXPECT_TRUE(rule.should_stop({0.5, 0.48, 0.52, 1000}));  // h = 0.02 <= 0.05
  EXPECT_FALSE(rule.should_stop({0.5, 0.4, 0.6, 1000}));   // h = 0.10 > 0.05
  // A zero estimate has no scale for a relative rule: keep sampling.
  EXPECT_FALSE(rule.should_stop({0.0, 0.0, 0.004, 1000}));
}

TEST(StoppingRule, RareEventUpperBoundStops) {
  StoppingRule rule;
  rule.stop_below = 0.01;
  EXPECT_TRUE(rule.should_stop({0.0, 0.0, 0.005, 1000}));   // confidently below
  EXPECT_FALSE(rule.should_stop({0.0, 0.0, 0.02, 1000}));   // still ambiguous
}

TEST(StoppingRule, BudgetBoundsBracketTheTargets) {
  StoppingRule rule;
  rule.target_half_width = 1.0;  // trivially met
  rule.min_samples = 500;
  EXPECT_FALSE(rule.should_stop({0.5, 0.5, 0.5, 100}));  // too early
  EXPECT_TRUE(rule.should_stop({0.5, 0.5, 0.5, 500}));

  StoppingRule cap;
  cap.target_half_width = 1e-12;  // unreachable
  cap.max_samples = 1000;
  EXPECT_FALSE(cap.should_stop({0.5, 0.0, 1.0, 999}));
  EXPECT_TRUE(cap.should_stop({0.5, 0.0, 1.0, 1000}));  // budget exhausted
}

TEST(StoppingRule, NoTargetNoCapStopsImmediately) {
  // A rule with nothing to wait for must not sample forever.
  const StoppingRule rule;
  EXPECT_FALSE(rule.has_target());
  EXPECT_TRUE(rule.should_stop({0.5, 0.0, 1.0, 1}));
}

TEST(StoppingRule, TargetsComposeWithOr) {
  StoppingRule rule;
  rule.target_half_width = 0.001;  // not met below
  rule.stop_below = 0.05;          // met
  EXPECT_TRUE(rule.precision_met({0.0, 0.0, 0.01, 1000}));
}

}  // namespace
