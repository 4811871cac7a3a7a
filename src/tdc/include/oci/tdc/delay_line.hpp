// Tapped delay line: the fine interpolator of the paper's two-step TDC
// (Figure 2-B). A hit signal propagates down a chain of N buffer
// elements; on the next rising clock edge the chain state is latched,
// yielding a thermometer code of the hit-to-edge interval. Element
// delays carry process mismatch and shift with temperature; the supply
// is held at its nominal voltage, so it moves no delay. The paper
// explicitly does NOT tune the line dynamically and instead relies on
// periodic calibration (our calibration.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "oci/util/random.hpp"
#include "oci/util/units.hpp"

namespace oci::tdc {

using util::RngStream;
using util::Temperature;
using util::Time;

struct DelayLineParams {
  std::size_t elements = 96;                   ///< N, chain length
  Time nominal_delay = Time::picoseconds(52.0);  ///< delta at nominal PVT
  double mismatch_sigma = 0.12;  ///< relative sigma of static per-element mismatch
  /// Systematic odd/even delay alternation (FPGA carry chains route odd
  /// and even taps through different fabric, giving the sawtooth DNL of
  /// the paper's Figure 3): even elements scale by (1 - skew), odd by
  /// (1 + skew).
  double odd_even_skew = 0.0;
  /// Fractional delay change per kelvin away from 20 C (CMOS buffers slow
  /// down when hot).
  double temperature_coefficient = 2.0e-3;
  /// Half-width of the metastability window around each tap boundary: if
  /// the latch edge lands within this of a tap's switching instant, that
  /// tap's sampled bit is random (may create bubbles).
  Time metastability_window = Time::picoseconds(4.0);
};

/// One sampled thermometer code: raw tap bits (1 = hit had reached that
/// tap when the clock latched).
using ThermometerCode = std::vector<std::uint8_t>;

/// True iff a tap latches a settled 1 when the clock edge comes
/// `margin` seconds after the tap's switching instant, at metastability
/// half-window `window`: sample()'s per-tap comparison without its
/// racing case, including the |margin| == window edge. Monotone in the
/// margin.
[[nodiscard]] inline bool latches_one(double margin, double window) {
  return window > 0.0 ? margin >= window : margin > 0.0;
}

class DelayLine {
 public:
  /// Draws static per-element mismatch from `process_rng` once; the line
  /// then behaves deterministically apart from metastability sampling.
  DelayLine(const DelayLineParams& params, RngStream& process_rng);

  [[nodiscard]] const DelayLineParams& params() const { return params_; }
  [[nodiscard]] std::size_t size() const { return base_delays_s_.size(); }

  /// Applies the junction temperature; scales every element's delay by
  /// 1 + temperature_coefficient x (T - 20 C).
  void set_conditions(Temperature t);
  [[nodiscard]] Temperature temperature() const { return temperature_; }

  /// Total propagation delay through the whole chain (the fine range Rf
  /// actually realised at the current conditions).
  [[nodiscard]] Time total_delay() const;

  /// Number of taps the hit passes in an interval `t` (ideal sampling,
  /// no metastability): the largest k with boundary(k) <= t, clamped to N.
  [[nodiscard]] std::size_t ideal_code(Time interval) const;

  /// Latches the chain after `interval`, with metastability noise on the
  /// taps whose switching instant falls within the metastability window
  /// of the latch. May contain bubbles.
  [[nodiscard]] ThermometerCode sample(Time interval, RngStream& rng) const;

  /// Tap switching instants as prefix sums in seconds (size N+1,
  /// boundary 0 first). Exposed for the fused sample-and-decode fast
  /// path in thermometer.hpp.
  [[nodiscard]] std::span<const double> boundaries_seconds() const { return boundaries_s_; }

  /// Where latch_regimes starts its walk: the settled-1 count at the
  /// line's own metastability window, taken at the lower edge of the
  /// interval's bucket (four buckets per tap over the chain plus the
  /// window; set_conditions rebuilds the table). Every interval, NaN
  /// and infinities included, falls in some bucket.
  [[nodiscard]] std::size_t settled_ones_guess(double interval_s) const {
    const double x = interval_s * bucket_scale_;
    const std::size_t last = ones_guess_.size() - 1;
    // Clamped before the cast, which only sees [0, last).
    const std::size_t k =
        x > 0.0 ? (x < static_cast<double>(last) ? static_cast<std::size_t>(x) : last) : 0;
    return ones_guess_[k];
  }

  /// True iff the chain at current conditions still covers the given
  /// clock period (the paper requires Rf >= one clock period).
  [[nodiscard]] bool covers(Time clock_period) const;

  /// Number of elements needed to cover `clock_period` at current
  /// conditions (the paper's "93 of 96 used at 20 C").
  [[nodiscard]] std::size_t elements_used(Time clock_period) const;

 private:
  void rebuild_boundaries();

  DelayLineParams params_;
  std::vector<double> mismatch_;        ///< static multiplier per element
  std::vector<double> base_delays_s_;   ///< current per-element delay [s]
  std::vector<double> boundaries_s_;    ///< prefix sums, size N+1
  std::vector<std::uint32_t> ones_guess_;  ///< settled-1 count per bucket edge
  double bucket_scale_ = 0.0;              ///< buckets per second of interval
  Temperature temperature_ = Temperature::celsius(20.0);
  double condition_scale_ = 1.0;
};

}  // namespace oci::tdc
