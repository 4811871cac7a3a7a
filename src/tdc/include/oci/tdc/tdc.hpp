// Two-step time-to-digital converter (paper Figure 2): a coarse counter
// running at the system clock plus a tapped-delay-line fine interpolator
// latched on the clock edge. The design is controlled by exactly the two
// parameters the paper names: N (fine delay elements) and C (coarse
// range bits), with
//
//   fine range          Rf      = N * delta
//   measurement window  MW(N,C) = (2^C + 1) * N * delta   (one Rf of reset)
//   output bits                 = log2(N) + C
//   throughput          TP(N,C) = (log2(N) + C) / MW(N,C)
#pragma once

#include <cstdint>
#include <optional>

#include "oci/tdc/delay_line.hpp"
#include "oci/tdc/thermometer.hpp"

namespace oci::tdc {

using util::Frequency;

struct TdcConfig {
  unsigned coarse_bits = 5;  ///< C
  /// The system clock period. The paper ties the clock to the fine
  /// range: the chain must cover at least one period (200 MHz -> 5 ns
  /// needing 96 x ~52 ps). If unset (zero), the nominal fine range
  /// N * delta is used as the period.
  Time clock_period = Time::zero();
};

/// One time-of-arrival conversion.
struct TdcReading {
  std::uint64_t code = 0;   ///< combined coarse/fine code, LSB = delta
  unsigned coarse = 0;      ///< clock periods counted (index of latch edge)
  std::size_t fine = 0;     ///< taps passed between hit and latch edge
  Time estimate;            ///< reconstructed TOA from the calibrated LSB
  bool saturated = false;   ///< hit fell outside the TOA window
};

class Tdc {
 public:
  /// The delay line is owned by value; pass a configured line (its
  /// process mismatch is already drawn).
  Tdc(DelayLine line, const TdcConfig& config);

  [[nodiscard]] const DelayLine& line() const { return line_; }
  [[nodiscard]] const TdcConfig& config() const { return config_; }

  /// Applies the junction temperature to the delay line
  /// (DelayLine::set_conditions) and re-derives the taps per period and
  /// the LSB. A rejected call changes nothing.
  void set_conditions(Temperature t);

  /// The clock period in force (configured or derived from N * delta).
  [[nodiscard]] Time clock_period() const { return clock_period_; }
  /// TOA window: 2^C clock periods.
  [[nodiscard]] Time toa_window() const;
  /// Full measurement window including the reset Rf: (2^C + 1) periods.
  [[nodiscard]] Time measurement_window() const;
  /// Ideal LSB: the clock period divided by the taps used to span it.
  [[nodiscard]] Time lsb() const;

  /// Converts a TOA measured from the window start. `toa` outside
  /// [0, toa_window), NaN included, yields saturated = true and a
  /// clamped code (NaN and -inf read as code 0).
  /// Stochastic (metastability) via rng.
  [[nodiscard]] TdcReading convert(Time toa, RngStream& rng) const;
  /// The same conversion with the racing taps' coins drawn from a
  /// counter stream (see sample_and_decode).
  [[nodiscard]] TdcReading convert(Time toa, util::CounterRng& coins) const;

  /// Deterministic conversion without metastability (ideal sampling).
  [[nodiscard]] TdcReading convert_ideal(Time toa) const;

 private:
  /// The clock edge that latches a hit at `toa` (clamped into the TOA
  /// window) and the hit-to-edge interval the delay line measures.
  struct Latch {
    unsigned edge = 0;
    Time interval;
  };
  [[nodiscard]] Latch latch(Time toa) const;
  [[nodiscard]] TdcReading finish(Time toa, unsigned coarse, std::size_t fine_taps) const;
  void derive_period_taps();

  DelayLine line_;
  TdcConfig config_;
  Time clock_period_;
  std::size_t taps_per_period_ = 0;  ///< line_.elements_used(clock_period_)
  double lsb_s_ = 0.0;               ///< clock period / taps_per_period_
};

}  // namespace oci::tdc
