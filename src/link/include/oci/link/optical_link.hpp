// End-to-end Monte Carlo model of one optical channel: micro-LED driver
// -> die-stack optical path -> SPAD -> two-step TDC -> PPM decode. This
// is the executable version of the paper's Figure 1/2 receiver chain;
// benches drive it to measure symbol/bit error rates and realised
// throughput against the analytic models.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "oci/link/budget.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/modulation/frame.hpp"
#include "oci/modulation/ppm.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/photonics/led.hpp"
#include "oci/spad/spad.hpp"
#include "oci/tdc/calibration.hpp"
#include "oci/tdc/tdc.hpp"
#include "oci/util/random.hpp"

namespace oci::link {

struct OpticalLinkConfig {
  TdcDesign design;  ///< N, C, delta -- fixes windows and throughput
  /// Bits carried per symbol; defaults (0) to the TDC's full
  /// log2(N) + C resolution as the paper assumes. Smaller values trade
  /// rate for jitter margin (wider slots).
  unsigned bits_per_symbol = 0;
  modulation::SlotLabeling labeling = modulation::SlotLabeling::kGray;

  photonics::MicroLedParams led;
  spad::SpadParams spad;
  tdc::DelayLineParams delay_line;  ///< elements overridden by design.fine_elements

  /// End-to-end channel transmittance (set directly or via from_stack).
  double channel_transmittance = 0.5;
  /// Ambient/stray photon rate at the detector, on top of the DCR.
  util::Frequency background_rate = util::Frequency::hertz(0.0);
  util::Temperature temperature = util::Temperature::celsius(20.0);

  /// Run a code-density calibration at construction and use its LUT for
  /// TOA reconstruction (the paper's "regular calibration").
  bool calibrate = true;
  std::uint64_t calibration_samples = 200000;

  /// Inter-symbol guard time appended to each measurement window. The
  /// paper's matching rule DC(N,C) >= dead time is necessary but not
  /// sufficient: a pulse LATE in window k followed by a pulse EARLY in
  /// window k+1 can still land inside the SPAD's recovery (worst-case
  /// gap is only Rf). A guard of (dead - Rf) makes the worst-case gap
  /// equal to the dead time, guaranteeing recovery. Negative (default)
  /// = auto-compute that value; zero = paper-exact windows, accepting
  /// inter-symbol erasures on random data.
  util::Time inter_symbol_guard = util::Time::seconds(-1.0);

  /// Receiver-side digital energy per conversion (TDC + decoder logic).
  util::Energy rx_energy_per_conversion = util::Energy::picojoules(0.5);
};

/// Outcome counters of a Monte Carlo transmission run.
struct LinkRunStats {
  std::uint64_t symbols_sent = 0;
  std::uint64_t symbol_errors = 0;
  std::uint64_t erasures = 0;        ///< no detection in the TOA window
  std::uint64_t noise_captures = 0;  ///< first detection was dark/afterpulse/background
  std::uint64_t bit_errors = 0;
  std::uint64_t total_bits = 0;
  /// Counter-RNG draws of the run: every window's lane, the racing-tap
  /// coins of its TDC conversion (which continue the lane), and the
  /// random symbols of run_symbols. The caller's RngStream serves only
  /// the one raw root draw per driver call, which nothing counts.
  std::uint64_t rng_draws = 0;
  util::Time elapsed;                ///< symbols x MW
  util::Energy tx_energy;
  util::Energy rx_energy;

  [[nodiscard]] double symbol_error_rate() const;
  [[nodiscard]] double bit_error_rate() const;
  [[nodiscard]] util::BitRate raw_throughput() const;
  [[nodiscard]] util::BitRate goodput() const;  ///< error-free bits per time
  [[nodiscard]] util::Energy energy_per_bit() const;

  /// Counter-wise accumulation (per-die / per-channel aggregation).
  LinkRunStats& operator+=(const LinkRunStats& other);
};

class OpticalLink {
 public:
  /// `process_rng` draws the delay line's static mismatch and, when
  /// enabled, runs the construction-time calibration.
  OpticalLink(const OpticalLinkConfig& config, util::RngStream& process_rng);

  [[nodiscard]] const OpticalLinkConfig& config() const { return config_; }
  [[nodiscard]] const tdc::Tdc& tdc() const { return tdc_; }
  [[nodiscard]] const spad::Spad& detector() const { return spad_; }
  [[nodiscard]] const photonics::MicroLed& led() const { return led_; }
  [[nodiscard]] const modulation::PpmCodec& ppm() const { return ppm_; }
  [[nodiscard]] unsigned bits_per_symbol() const { return bits_per_symbol_; }
  [[nodiscard]] util::Time toa_window() const { return tdc_.toa_window(); }
  /// Guard actually in force (auto-resolved at construction).
  [[nodiscard]] util::Time guard() const { return guard_; }
  /// Wall-clock spacing of symbols: MW(N,C) plus the inter-symbol guard.
  [[nodiscard]] util::Time symbol_period() const {
    return tdc_.measurement_window() + guard_;
  }
  /// The paper's analytic TP for the configured design.
  [[nodiscard]] util::BitRate analytic_throughput() const;
  /// Re-runs the code-density calibration (e.g. after set_temperature)
  /// and the data-aided offset training: pulses at known positions are
  /// pushed through the full LED->SPAD->TDC chain and the mean residual
  /// becomes the receiver's static TOA correction. This absorbs the
  /// brightness-dependent first-photon bias (a bright pulse fires the
  /// SPAD near its leading edge, not at the envelope mean) alongside
  /// delay-line drift -- the paper's "regular calibration". `rng`
  /// serves the code-density histogram's binomials and one raw root.
  /// The 1000 training pulses run as one kernel batch on lanes of that
  /// root keyed like a driver call's, at positions from a counter
  /// stream of their own, and each conversion's racing-tap coins
  /// continue its pulse's lane. Returns those counter draws (positions,
  /// windows and coins), which rng.draws() does not count.
  std::uint64_t recalibrate(std::uint64_t samples, util::RngStream& rng);
  /// Static TOA correction currently applied by the receiver.
  [[nodiscard]] util::Time detection_offset() const { return detection_offset_; }
  /// Code-density calibration LUT in force (invalid when calibrate=false).
  [[nodiscard]] const tdc::CalibrationLut& calibration_lut() const { return lut_; }
  /// Changes the operating temperature of detector and delay line
  /// WITHOUT recalibrating -- the drift the paper's periodic calibration
  /// must chase.
  void set_temperature(util::Temperature t);

  /// The receiver's slot decision for a TDC reading: the calibrated TOA
  /// (the LUT's, or the raw estimate without a valid LUT) minus the
  /// trained detection offset, clamped at 0, PPM-decoded.
  [[nodiscard]] std::uint64_t decide(const tdc::TdcReading& reading) const {
    // Static offset: subtract the trained receive-chain bias so the slot
    // decision is centred on the encoder's pulse placement (slot centre,
    // so floor-based binning is symmetric around the true slot).
    util::Time corrected = lut_.correct(reading, tdc_.clock_period()) - detection_offset_;
    if (corrected < util::Time::zero()) corrected = util::Time::zero();
    return ppm_.decode(corrected);
  }

  /// Reference implementation of one symbol window: materialises the
  /// photon set (PhotonStream), thins it through SpadArray-style
  /// detection (Spad::detect) and converts the first avalanche. This is
  /// the general path (arbitrary interference photons) and the
  /// statistical reference the LinkEngine is validated against; the
  /// engine replaces its per-photon draws with exact thinned-process
  /// streaming, so the two agree in distribution but not draw-for-draw.
  [[nodiscard]] std::uint64_t transmit_symbol_reference(
      std::uint64_t symbol, util::Time start, util::Time& dead_until, LinkRunStats& stats,
      util::RngStream& rng, std::vector<photonics::PhotonArrival> interference) const;

  /// Sends a symbol stream back-to-back (one per measurement window).
  struct RunResult {
    std::vector<std::uint64_t> decoded;
    /// Per-symbol no-detection flag: the receiver KNOWS these positions
    /// carried no avalanche (it emitted the all-zero symbol), which an
    /// erasure-capable outer code exploits at half the parity cost of
    /// an unknown-position error.
    std::vector<bool> erased;
    LinkRunStats stats;
  };
  [[nodiscard]] RunResult transmit(const std::vector<std::uint64_t>& symbols,
                                   util::RngStream& rng) const;

  /// Convenience: random symbols, for error-rate measurements.
  [[nodiscard]] LinkRunStats measure(std::uint64_t symbol_count, util::RngStream& rng) const;

  /// Frame round trip: serialize, transmit, attempt to parse.
  struct FrameResult {
    std::optional<modulation::Frame> frame;  ///< nullopt if CRC/preamble failed
    LinkRunStats stats;
  };
  [[nodiscard]] FrameResult transmit_frame(const modulation::Frame& frame,
                                           util::RngStream& rng) const;

 private:
  OpticalLinkConfig config_;
  photonics::MicroLed led_;
  spad::Spad spad_;
  tdc::Tdc tdc_;
  modulation::PpmCodec ppm_;
  modulation::FrameCodec framer_;
  photonics::PhotonStream stream_;
  tdc::CalibrationLut lut_;
  unsigned bits_per_symbol_;
  util::Time guard_;
  /// Static receive-chain TOA bias subtracted before slot binning.
  /// Initialised to the mean emission delay of the rectangular pulse
  /// (half its width); replaced by the measured value whenever
  /// recalibrate() runs.
  util::Time detection_offset_;
};

}  // namespace oci::link
