#include "oci/analysis/sequential.hpp"

#include <algorithm>
#include <cmath>

namespace oci::analysis {

namespace {

/// Proportion of `successes` over `n` trials, hardened against
/// reconstructed state: a non-finite count (corrupt/merged document)
/// reads as 0 -- std::clamp propagates NaN, so clamping alone is NOT a
/// guard -- and the result is pinned to [0, 1].
double safe_proportion(double successes, double n) {
  const double p = successes / n;
  if (!std::isfinite(p)) return 0.0;
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace

Estimate wilson_estimate(double successes, std::uint64_t trials, double z) {
  Estimate e;
  e.n_samples = trials;
  if (trials == 0) return e;
  const double n = static_cast<double>(trials);
  const double p = safe_proportion(successes, n);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  e.value = p;
  e.ci_low = std::max(0.0, (centre - margin) / denom);
  e.ci_high = std::min(1.0, (centre + margin) / denom);
  return e;
}

void RateAccumulator::add(double rate, std::uint64_t trials) {
  successes_ += rate * static_cast<double>(trials);
  trials_ += trials;
}

RateAccumulator RateAccumulator::from_counts(double successes,
                                             std::uint64_t trials) {
  RateAccumulator acc;
  // Reconstructed state (result store, merged schema-v2 documents) can
  // carry a garbled count; a non-finite or negative value would poison
  // every later merge, so it reads as zero successes.
  acc.successes_ = std::isfinite(successes) ? std::max(successes, 0.0) : 0.0;
  acc.trials_ = trials;
  return acc;
}

void RateAccumulator::merge(const RateAccumulator& other) {
  successes_ += other.successes_;
  trials_ += other.trials_;
}

Estimate RateAccumulator::wilson(double z) const {
  return wilson_estimate(successes_, trials_, z);
}

void MeanAccumulator::add(double chunk_mean, std::uint64_t chunk_samples) {
  batch_.add(chunk_mean);
  samples_ += chunk_samples;
}

MeanAccumulator MeanAccumulator::from_state(std::size_t chunks,
                                            double batch_mean, double batch_m2,
                                            std::uint64_t samples) {
  MeanAccumulator acc;
  // Zero-chunk state round-tripped through a report legitimately
  // carries no moments (and a corrupt document can carry garbage):
  // reconstruct the EMPTY accumulator rather than moments that NaN
  // every merge they touch. Same for non-finite or negative M2.
  if (chunks == 0 || !std::isfinite(batch_mean) || !std::isfinite(batch_m2)) {
    return acc;
  }
  acc.batch_ =
      util::RunningStats::from_moments(chunks, batch_mean, std::max(batch_m2, 0.0));
  acc.samples_ = samples;
  return acc;
}

void MeanAccumulator::merge(const MeanAccumulator& other) {
  batch_.merge(other.batch_);
  samples_ += other.samples_;
}

Estimate MeanAccumulator::interval(double z) const {
  Estimate e;
  e.n_samples = samples_;
  e.value = batch_.mean();
  e.ci_low = e.value;
  e.ci_high = e.value;
  if (batch_.count() >= 2) {
    const double margin =
        z * batch_.stddev() / std::sqrt(static_cast<double>(batch_.count()));
    // A degenerate spread (reconstructed moments) must collapse the
    // interval to the mean, never widen it to NaN.
    if (std::isfinite(margin)) {
      e.ci_low = e.value - margin;
      e.ci_high = e.value + margin;
    }
  }
  return e;
}

void WeightStats::add(double weight) {
  sum_ += weight;
  sum_sq_ += weight * weight;
  ++count_;
}

WeightStats WeightStats::from_state(double sum, double sum_sq,
                                    std::uint64_t count) {
  WeightStats acc;
  // Same hardening contract as the other accumulators: reconstructed
  // moments that are non-finite or negative read as the empty state
  // instead of poisoning every merge downstream.
  if (count == 0 || !std::isfinite(sum) || !std::isfinite(sum_sq) ||
      sum < 0.0 || sum_sq < 0.0) {
    return acc;
  }
  acc.sum_ = sum;
  acc.sum_sq_ = sum_sq;
  acc.count_ = count;
  return acc;
}

void WeightStats::merge(const WeightStats& other) {
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  count_ += other.count_;
}

double WeightStats::n_eff() const {
  if (sum_sq_ <= 0.0) return 0.0;
  return sum_ * sum_ / sum_sq_;
}

double WeightStats::weight_cv() const {
  if (sum_ <= 0.0 || count_ == 0) return 0.0;
  const double n = static_cast<double>(count_);
  const double ratio = n * sum_sq_ / (sum_ * sum_);
  return std::sqrt(std::max(ratio - 1.0, 0.0));
}

bool StoppingRule::has_target() const {
  return target_half_width > 0.0 || target_relative > 0.0 || stop_below > 0.0;
}

bool StoppingRule::precision_met(const Estimate& e) const {
  const double h = e.half_width();
  if (target_half_width > 0.0 && h <= target_half_width) return true;
  if (target_relative > 0.0 && e.value != 0.0 &&
      h <= target_relative * std::fabs(e.value)) {
    return true;
  }
  if (stop_below > 0.0 && e.ci_high < stop_below) return true;
  return false;
}

bool StoppingRule::should_stop(const Estimate& e) const {
  if (e.n_samples < min_samples) return false;
  if (max_samples > 0 && e.n_samples >= max_samples) return true;
  if (!has_target()) return max_samples == 0;  // nothing left to wait for
  return precision_met(e);
}

}  // namespace oci::analysis
