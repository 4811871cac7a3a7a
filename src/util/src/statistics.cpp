#include "oci/util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oci::util {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats RunningStats::from_moments(std::size_t n, double mean, double m2) {
  RunningStats s;
  if (n == 0) return s;
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = mean;
  s.max_ = mean;
  return s;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) {
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);  // guard against FP edge at hi_
  ++counts_[bin];
  ++total_;
}

void Histogram::add_count(std::size_t bin, std::uint64_t count) {
  counts_.at(bin) += count;
  total_ += count;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::fraction(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) / static_cast<double>(total_);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile_sorted: empty input");
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

}  // namespace oci::util
