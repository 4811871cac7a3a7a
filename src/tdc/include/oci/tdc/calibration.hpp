// Code-density calibration and nonlinearity analysis. The paper forgoes
// dynamic PVT adjustment of the delay line and instead relies on
// "regular calibration so as to ensure a fixed bound on resolution";
// the standard technique is the code-density test used here: drive the
// TDC with hits uniform in time, histogram the fine codes, and derive
// each bin's real width. DNL/INL (paper Figure 3) fall out directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "oci/tdc/tdc.hpp"
#include "oci/util/random.hpp"

namespace oci::tdc {

struct NonlinearityReport {
  std::vector<double> bin_width_s;  ///< estimated width of each fine bin [s]
  std::vector<double> dnl_lsb;      ///< DNL per code, in LSB
  std::vector<double> inl_lsb;      ///< INL per code, in LSB
  double lsb_s = 0.0;               ///< mean bin width = effective LSB [s]
  double max_abs_dnl = 0.0;
  double max_abs_inl = 0.0;
  std::size_t codes = 0;            ///< fine codes covered (elements used)
  std::uint64_t samples = 0;
};

/// The fine-code distribution π of one hit uniform in [0, clock period)
/// at the line's current conditions (codes past the used taps clamp to
/// the last one, as in the code-density test). The switching instants ±
/// the line's metastability window cut the period into segments of
/// constant settled 1s and racing taps; each segment's mass spreads
/// evenly over its racing taps' 2^m coin patterns, decoded by
/// decode_latched. Empty when some segment races more than 8 taps (a
/// window wider than a few tap delays), where the enumeration would
/// blow up. With a zero window m is always 0.
[[nodiscard]] std::optional<std::vector<double>> code_probabilities(const Tdc& tdc);

/// Runs a code-density test over one clock period of the TDC's delay
/// line: `samples` hits uniform in [0, clock period), fine codes
/// histogrammed, bin widths estimated as count fractions of the period.
/// Hits are iid, so the histogram is Multinomial(samples, π): it is
/// drawn exactly from code_probabilities as one binomial per code, and
/// hit by hit (sample_and_decode) only when π is not enumerable.
[[nodiscard]] NonlinearityReport code_density_test(const Tdc& tdc, std::uint64_t samples,
                                                   util::RngStream& rng);

/// Computes DNL/INL in LSB directly from known bin widths (used both by
/// the code-density estimator and by tests against ground-truth element
/// delays).
[[nodiscard]] NonlinearityReport nonlinearity_from_widths(const std::vector<double>& widths_s);

/// Piecewise-linear correction derived from a code-density report: maps
/// a fine code to the calibrated time offset (bin centre) before the
/// latch edge. Using it removes the INL from reconstructed TOAs.
class CalibrationLut {
 public:
  CalibrationLut() = default;
  explicit CalibrationLut(const NonlinearityReport& report);

  [[nodiscard]] bool valid() const { return !centre_s_.empty(); }
  [[nodiscard]] std::size_t codes() const { return centre_s_.size(); }

  /// Calibrated hit-to-edge interval for a fine code (bin centre).
  [[nodiscard]] util::Time fine_interval(std::size_t fine_code) const {
    if (centre_s_.empty()) throw std::logic_error("CalibrationLut: empty");
    return util::Time::seconds(centre_s_[std::min(fine_code, centre_s_.size() - 1)]);
  }

  /// Reconstructs the TOA for a TDC reading using this LUT: the latch
  /// edge time minus the calibrated fine interval, or the reading's raw
  /// estimate when the LUT is invalid (no calibration). Inline, like
  /// fine_interval(): the receiver corrects every symbol's reading.
  [[nodiscard]] util::Time correct(const TdcReading& reading, util::Time clock_period) const {
    if (!valid()) return reading.estimate;
    const util::Time edge = clock_period * static_cast<double>(reading.coarse);
    util::Time toa = edge - fine_interval(reading.fine);
    if (toa < util::Time::zero()) toa = util::Time::zero();
    return toa;
  }

 private:
  std::vector<double> centre_s_;  ///< bin-centre interval per fine code
};

/// Residual TOA error (RMS, seconds) of `probes` hits uniform over the
/// TOA window, converted at the line's present conditions and
/// reconstructed through `lut` -- the resolution bound the paper's
/// regular calibration enforces. An invalid LUT reads the raw estimate
/// (no calibration). 0 for no probes.
[[nodiscard]] double residual_rms_s(const Tdc& tdc, const CalibrationLut& lut,
                                    std::uint64_t probes, util::RngStream& rng);

}  // namespace oci::tdc
