// Streaming statistics used by the calibration, nonlinearity, and
// error-rate analyses.
#pragma once

#include <cstddef>
#include <limits>

namespace oci::util {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  /// Rebuilds a stats object from its serialized moments (count, mean,
  /// sum of squared deviations). min/max are not part of the moment
  /// state and degenerate to the mean -- callers persisting stats for
  /// later merging (the scenario result store) only need the moments.
  [[nodiscard]] static RunningStats from_moments(std::size_t n, double mean,
                                                 double m2);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Sum of squared deviations from the mean (Welford's M2). Exposed so
  /// the moment state survives a serialize/merge round trip bit-exactly;
  /// reconstructing it from variance() loses the last bits.
  [[nodiscard]] double m2() const { return m2_; }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace oci::util
