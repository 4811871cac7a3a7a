#include "oci/tdc/delay_line.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oci::tdc {

DelayLine::DelayLine(const DelayLineParams& params, RngStream& process_rng)
    : params_(params) {
  if (params_.elements == 0) throw std::invalid_argument("DelayLine: need >= 1 element");
  if (params_.nominal_delay <= Time::zero()) {
    throw std::invalid_argument("DelayLine: nominal delay must be positive");
  }
  if (params_.mismatch_sigma < 0.0 || params_.mismatch_sigma >= 1.0) {
    throw std::invalid_argument("DelayLine: mismatch sigma must be in [0,1)");
  }
  if (params_.odd_even_skew < 0.0 || params_.odd_even_skew >= 1.0) {
    throw std::invalid_argument("DelayLine: odd/even skew must be in [0,1)");
  }
  mismatch_.reserve(params_.elements);
  for (std::size_t i = 0; i < params_.elements; ++i) {
    // Truncated normal: delays cannot go negative or vanish; clamp at
    // 20% of nominal which is far beyond realistic mismatch.
    const double m = std::max(0.2, process_rng.normal(1.0, params_.mismatch_sigma));
    mismatch_.push_back(m);
  }
  rebuild_boundaries();
}

void DelayLine::set_conditions(Temperature t) {
  const double scale = 1.0 + params_.temperature_coefficient * (t.celsius() - 20.0);
  // Checked before anything is assigned: a rejected call leaves the
  // line at its previous conditions.
  if (!(scale > 0.0)) {
    throw std::invalid_argument("DelayLine: operating conditions give non-positive delay");
  }
  temperature_ = t;
  condition_scale_ = scale;
  rebuild_boundaries();
}

void DelayLine::rebuild_boundaries() {
  const double d0 = params_.nominal_delay.seconds() * condition_scale_;
  base_delays_s_.assign(mismatch_.size(), 0.0);
  boundaries_s_.assign(mismatch_.size() + 1, 0.0);
  for (std::size_t i = 0; i < mismatch_.size(); ++i) {
    const double skew = (i % 2 == 0) ? 1.0 - params_.odd_even_skew
                                     : 1.0 + params_.odd_even_skew;
    base_delays_s_[i] = d0 * mismatch_[i] * skew;
    boundaries_s_[i + 1] = boundaries_s_[i] + base_delays_s_[i];
  }
  // latch_regimes' starting guesses: the settled-1 count at each bucket
  // edge over [0, chain + window], past which every tap reads 1.
  const std::size_t n = size();
  const double meta = params_.metastability_window.seconds();
  const std::size_t buckets = 4 * n;
  bucket_scale_ = static_cast<double>(buckets) / (boundaries_s_[n] + std::max(meta, 0.0));
  ones_guess_.assign(buckets + 1, 0);
  std::size_t ones = 0;
  for (std::size_t k = 0; k <= buckets; ++k) {
    const double t = static_cast<double>(k) / bucket_scale_;
    while (ones < n && latches_one(t - boundaries_s_[ones + 1], meta)) ++ones;
    ones_guess_[k] = static_cast<std::uint32_t>(ones);
  }
}

Time DelayLine::total_delay() const { return Time::seconds(boundaries_s_.back()); }

std::size_t DelayLine::ideal_code(Time interval) const {
  const double t = interval.seconds();
  if (t <= 0.0) return 0;
  const auto it = std::upper_bound(boundaries_s_.begin(), boundaries_s_.end(), t);
  // upper_bound returns first boundary > t; taps passed = index - 1.
  return static_cast<std::size_t>(std::distance(boundaries_s_.begin(), it)) - 1;
}

ThermometerCode DelayLine::sample(Time interval, RngStream& rng) const {
  const double t = interval.seconds();
  const double meta = params_.metastability_window.seconds();
  ThermometerCode code(size(), 0);
  for (std::size_t i = 0; i < size(); ++i) {
    // Tap i reads 1 iff the hit edge crossed boundary i+1 by latch time.
    const double switch_at = boundaries_s_[i + 1];
    const double margin = t - switch_at;
    if (std::abs(margin) < meta) {
      // Latch raced the tap's transition: resolved randomly.
      code[i] = rng.bernoulli(0.5) ? 1 : 0;
    } else {
      code[i] = margin > 0.0 ? 1 : 0;
    }
  }
  return code;
}

bool DelayLine::covers(Time clock_period) const {
  return total_delay() >= clock_period;
}

std::size_t DelayLine::elements_used(Time clock_period) const {
  // The first tap whose switching instant reaches the period; the
  // boundaries strictly increase, so a binary search finds it.
  const auto first = boundaries_s_.begin() + 1;
  const auto it = std::lower_bound(first, boundaries_s_.end(), clock_period.seconds());
  if (it == boundaries_s_.end()) return size();
  return static_cast<std::size_t>(std::distance(first, it)) + 1;
}

}  // namespace oci::tdc
