// Statistical matchers for Monte-Carlo test expectations.
//
// A hard threshold on a measured rate (EXPECT_LT(ser, 0.01)) flakes as
// soon as the sample is small enough for the binomial noise to cross
// the line. These matchers instead test the hypothesis through a
// Wilson score interval at a caller-chosen significance level alpha:
// the assertion only fails when the data is statistically inconsistent
// with the claim, so a passing test stays a passing test under any RNG
// reshuffle of the same physics, while a genuine regression of the
// underlying rate still trips it.
//
//   EXPECT_RATE_NEAR(hits, trials, p, alpha)   p inside the CI
//   EXPECT_RATE_LT(hits, trials, p, alpha)     CI not entirely >= p
//   EXPECT_RATE_GT(hits, trials, p, alpha)     CI not entirely <= p
//   EXPECT_RATES_CONSISTENT(h1, n1, h2, n2, alpha)
//       two-sample pooled z-test that two binomial rates agree
//   EXPECT_Z_NEAR(observed, expected, sd, alpha)
//       two-sided z-test of an estimate with known standard deviation
//
// normal_quantile turns a significance level into a critical z, and
// chi_square_quantile gives the critical value of a goodness-of-fit test.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "oci/analysis/sequential.hpp"

namespace oci::test {

/// Inverse error function, rational approximation (Giles 2012
/// single-precision form; ~1e-7 absolute error, adequate for
/// confidence-interval z values).
[[nodiscard]] inline double erfinv(double x) {
  const double w = -std::log((1.0 - x) * (1.0 + x));
  if (w < 5.0) {
    const double ww = w - 2.5;
    double p = 2.81022636e-08;
    p = 3.43273939e-07 + p * ww;
    p = -3.5233877e-06 + p * ww;
    p = -4.39150654e-06 + p * ww;
    p = 0.00021858087 + p * ww;
    p = -0.00125372503 + p * ww;
    p = -0.00417768164 + p * ww;
    p = 0.246640727 + p * ww;
    p = 1.50140941 + p * ww;
    return p * x;
  }
  const double ww = std::sqrt(w) - 3.0;
  double p = -0.000200214257;
  p = 0.000100950558 + p * ww;
  p = 0.00134934322 + p * ww;
  p = -0.00367342844 + p * ww;
  p = 0.00573950773 + p * ww;
  p = -0.0076224613 + p * ww;
  p = 0.00943887047 + p * ww;
  p = 1.00167406 + p * ww;
  p = 2.83297682 + p * ww;
  return p * x;
}

/// Standard normal quantile: z with Phi(z) = p, p in (0, 1). Used to
/// turn a confidence level into the z of a Wilson interval.
[[nodiscard]] inline double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  return std::sqrt(2.0) * erfinv(2.0 * p - 1.0);
}

/// Two-sided Wilson interval at significance alpha (confidence 1-alpha).
inline analysis::Estimate rate_interval(std::uint64_t hits, std::uint64_t trials,
                                        double alpha) {
  return analysis::wilson_estimate(static_cast<double>(hits), trials,
                                   normal_quantile(1.0 - alpha / 2.0));
}

inline ::testing::AssertionResult RateNear(std::uint64_t hits, std::uint64_t trials,
                                           double p, double alpha) {
  const analysis::Estimate ci = rate_interval(hits, trials, alpha);
  if (p >= ci.ci_low && p <= ci.ci_high) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.value << " has Wilson CI ["
         << ci.ci_low << ", " << ci.ci_high << "] at alpha=" << alpha
         << ", which excludes the expected " << p;
}

/// Asserts the true rate is below p: fails only when even the CI's
/// lower bound clears p, i.e. the data is significantly ABOVE the bound.
inline ::testing::AssertionResult RateLt(std::uint64_t hits, std::uint64_t trials, double p,
                                         double alpha) {
  const analysis::Estimate ci = rate_interval(hits, trials, alpha);
  if (ci.ci_low < p) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.value << " is significantly >= " << p
         << " (Wilson CI [" << ci.ci_low << ", " << ci.ci_high << "] at alpha=" << alpha << ")";
}

/// Asserts the true rate is above p (mirror of RateLt).
inline ::testing::AssertionResult RateGt(std::uint64_t hits, std::uint64_t trials, double p,
                                         double alpha) {
  const analysis::Estimate ci = rate_interval(hits, trials, alpha);
  if (ci.ci_high > p) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rate " << hits << "/" << trials << " = " << ci.value << " is significantly <= " << p
         << " (Wilson CI [" << ci.ci_low << ", " << ci.ci_high << "] at alpha=" << alpha << ")";
}

/// Pooled two-proportion z-test: are two binomial samples consistent
/// with one underlying rate? Used to pin statistically-equivalent
/// implementations (e.g. reference pipeline vs LinkEngine) against each
/// other without demanding draw-for-draw identical RNG consumption.
inline ::testing::AssertionResult RatesConsistent(std::uint64_t h1, std::uint64_t n1,
                                                  std::uint64_t h2, std::uint64_t n2,
                                                  double alpha) {
  if (n1 == 0 || n2 == 0) {
    return ::testing::AssertionFailure() << "two-proportion test needs trials on both sides";
  }
  const double p1 = static_cast<double>(h1) / static_cast<double>(n1);
  const double p2 = static_cast<double>(h2) / static_cast<double>(n2);
  const double pooled = static_cast<double>(h1 + h2) / static_cast<double>(n1 + n2);
  const double se = std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(n1) + 1.0 / static_cast<double>(n2)));
  if (se == 0.0) {
    // Both samples all-hits or all-misses: consistent iff equal.
    if (p1 == p2) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "degenerate rates differ: " << p1 << " vs " << p2;
  }
  const double z = (p1 - p2) / se;
  const double z_crit = normal_quantile(1.0 - alpha / 2.0);
  if (std::abs(z) <= z_crit) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "rates " << h1 << "/" << n1 << " = " << p1 << " and " << h2 << "/" << n2 << " = "
         << p2 << " differ with |z| = " << std::abs(z) << " > " << z_crit
         << " at alpha=" << alpha;
}

/// Two-sided z-test: is `observed` consistent with an estimator of mean
/// `expected` and standard deviation `sd`? Used for sample means and
/// variances whose sampling spread is known in closed form.
inline ::testing::AssertionResult ZNear(double observed, double expected, double sd,
                                        double alpha) {
  const double z = (observed - expected) / sd;
  const double z_crit = normal_quantile(1.0 - alpha / 2.0);
  if (std::abs(z) <= z_crit) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "observed " << observed << " vs expected " << expected
                                       << " (sd " << sd << ") gives |z| = " << std::abs(z)
                                       << " > " << z_crit << " at alpha=" << alpha;
}

/// p-quantile of the chi-square distribution with `dof` degrees of
/// freedom, by the Wilson-Hilferty cube-root normal approximation
/// (relative error well under 1% for dof >= 10).
inline double chi_square_quantile(double dof, double p) {
  const double c = 2.0 / (9.0 * dof);
  const double root = 1.0 - c + normal_quantile(p) * std::sqrt(c);
  return dof * root * root * root;
}

}  // namespace oci::test

#define EXPECT_RATE_NEAR(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateNear((hits), (trials), (p), (alpha)))
#define EXPECT_RATE_LT(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateLt((hits), (trials), (p), (alpha)))
#define EXPECT_RATE_GT(hits, trials, p, alpha) \
  EXPECT_TRUE(::oci::test::RateGt((hits), (trials), (p), (alpha)))
#define EXPECT_RATES_CONSISTENT(h1, n1, h2, n2, alpha) \
  EXPECT_TRUE(::oci::test::RatesConsistent((h1), (n1), (h2), (n2), (alpha)))
#define EXPECT_Z_NEAR(observed, expected, sd, alpha) \
  EXPECT_TRUE(::oci::test::ZNear((observed), (expected), (sd), (alpha)))
