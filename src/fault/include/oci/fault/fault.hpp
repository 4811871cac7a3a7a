// Deterministic fault injection for the whole stack. A FaultSpec is a
// declarative description of WHICH degradations a scenario suffers
// (dead/hot SPAD pixels, dark or flaky transmitter windows, TDC
// calibration drift, killed/attenuated WDM channels, dead NoC nodes
// and broken links); realise() turns it into one concrete Realisation
// -- the exact pixel counts, channel scales and node sets -- drawn from
// a dedicated RNG stream the caller keys per sweep point. Because the
// realisation is a pure function of (spec, stream), faulted runs stay
// bit-identical across thread counts and shards: the fault layer never
// touches the simulation streams.
//
// Every fault kind is paired with a graceful-degradation response the
// consuming layer applies (pixel masking, recalibration after drift,
// erasure marking for dark windows, channel attenuation folding,
// routing around dead dies, MAC re-arbitration over the survivors);
// see the README "Fault model & degradation story" table.
#pragma once

#include <cstdint>
#include <vector>

#include "oci/util/random.hpp"

namespace oci::fault {

/// Declarative fault description. All fractions/probabilities live in
/// [0, 1]; a default-constructed spec is the clean (fault-free) run.
/// Validation of ranges and topology support happens in
/// scenario::ScenarioSpec::validate() -- this struct is plain data.
struct FaultSpec {
  // -- SPAD pixel faults (point-to-point and WDM receivers) ----------
  /// Fraction of the receiver array's pixels permanently dead
  /// (quench circuit stuck; the pixel never arms again).
  double dead_pixel_fraction = 0.0;
  /// Fraction of pixels "hot": screamers whose junction dark-count
  /// rate is hot_pixel_dcr_hz instead of the device DCR share.
  double hot_pixel_fraction = 0.0;
  /// Per-pixel DCR of an UNMASKED hot pixel [Hz].
  double hot_pixel_dcr_hz = 1.0e6;
  /// Pixels in the modelled receiver array (the spec-level view; the
  /// analytic fold below never needs per-pixel identities).
  std::uint64_t array_pixels = 64;
  /// Response: calibration masks hot pixels out of the OR-tree. A
  /// masked pixel contributes neither dark counts nor signal (its
  /// photosensitive area is lost); unmasked hot pixels keep detecting
  /// photons but scream at hot_pixel_dcr_hz.
  bool mask_hot_pixels = true;

  // -- LED / driver faults (point-to-point symbol traffic) -----------
  /// Probability a symbol window is DARK: the driver drops the pulse
  /// entirely (aging driver brown-out). Response: the receiver's
  /// erasure path marks the window for FEC erasure decoding.
  double dark_window_probability = 0.0;
  /// Probability a symbol window is FLAKY: the pulse launches
  /// attenuated by flaky_attenuation_db (marginal solder joint /
  /// drooping supply rail).
  double flaky_window_probability = 0.0;
  /// Optical attenuation of a flaky window [dB].
  double flaky_attenuation_db = 6.0;

  // -- TDC calibration drift (point-to-point symbol traffic) ---------
  /// Operating-temperature excursion [deg C] applied AFTER the link
  /// calibrated at its nominal temperature -- the delay line drifts
  /// out from under the trained LUT/offset.
  double tdc_drift_c = 0.0;
  /// Response: retrain the calibration LUT + offset at the drifted
  /// operating point (counted in the `recalibrations` metric).
  bool recalibrate = true;

  // -- WDM channel faults --------------------------------------------
  /// Fraction of the grid's channels killed outright (laser driver or
  /// demux port dead). Response: the channel's traffic is lost but its
  /// leakage into neighbours dies with it -- the survivors keep their
  /// (cleaner) spectrum.
  double dead_channel_fraction = 0.0;
  /// Extra optical attenuation applied to every SURVIVING channel [dB]
  /// (aging couplers); 0 = pristine survivors.
  double channel_attenuation_db = 0.0;

  // -- Stack-NoC faults ----------------------------------------------
  /// Fraction of dies dead (power-gated or failed). Deterministic
  /// count: round(fraction x dies) dies are removed.
  double dead_node_fraction = 0.0;
  /// Per-ordered-pair probability that a (src, dst) optical path is
  /// broken while both endpoints live (blocked TSV window).
  double link_failure_probability = 0.0;
  /// Response: uniform traffic re-picks destinations among LIVE dies
  /// (routing around the hole). false = keep addressing dead dies and
  /// eat the retry drops.
  bool reroute = true;
  /// Response: rebuild the MAC over the surviving dies only (TDMA slot
  /// reclamation, token ring bypass). false = keep the full-size MAC;
  /// dead dies' TDMA slots are wasted and the token pays pass costs
  /// skipping them.
  bool mac_reclaim = true;

  /// Extra entropy for the fault stream: two otherwise identical specs
  /// with different salts draw independent fault realisations (fault
  /// Monte Carlo across realisations).
  std::uint64_t salt = 0;

  [[nodiscard]] bool pixel_active() const {
    return dead_pixel_fraction > 0.0 || hot_pixel_fraction > 0.0;
  }
  [[nodiscard]] bool window_active() const {
    return dark_window_probability > 0.0 || flaky_window_probability > 0.0;
  }
  [[nodiscard]] bool tdc_active() const { return tdc_drift_c != 0.0; }
  [[nodiscard]] bool wdm_active() const {
    return dead_channel_fraction > 0.0 || channel_attenuation_db > 0.0;
  }
  [[nodiscard]] bool noc_active() const {
    return dead_node_fraction > 0.0 || link_failure_probability > 0.0;
  }
  [[nodiscard]] bool any() const {
    return pixel_active() || window_active() || tdc_active() || wdm_active() ||
           noc_active();
  }
};

/// Realised pixel-fault state of one receiver array. Counts, not
/// identities: the detection physics is exchangeable over pixels, so
/// Poisson thinning folds the faulted array into PDP/DCR scale factors
/// of the single-detector receiver.
struct PixelFaults {
  std::uint64_t pixels = 0;
  std::uint64_t dead = 0;
  std::uint64_t hot = 0;
  bool masked = true;          ///< hot pixels masked out of the OR-tree
  double hot_dcr_hz = 0.0;     ///< per-pixel DCR of an unmasked hot pixel

  /// Fraction of the array still photon-sensitive (dead and masked-hot
  /// pixels are lost area).
  [[nodiscard]] double pdp_scale() const {
    if (pixels == 0) return 1.0;
    const std::uint64_t lost = dead + (masked ? hot : 0);
    return static_cast<double>(pixels - lost) / static_cast<double>(pixels);
  }
  /// Scale on the HEALTHY population's aggregate DCR (dead and hot
  /// pixels no longer contribute the device-rate share).
  [[nodiscard]] double dcr_scale() const {
    if (pixels == 0) return 1.0;
    return static_cast<double>(pixels - dead - hot) / static_cast<double>(pixels);
  }
  /// Aggregate extra DCR of unmasked hot pixels [Hz].
  [[nodiscard]] double extra_dcr_hz() const {
    return masked ? 0.0 : static_cast<double>(hot) * hot_dcr_hz;
  }
};

/// Sizes realise() needs from the scenario (0 = that layer is absent).
struct Context {
  std::size_t wdm_channels = 0;
  std::size_t noc_dies = 0;
};

/// One concrete fault realisation: what the runner threads through the
/// engines. A default-constructed Realisation is clean.
struct Realisation {
  PixelFaults pixels;
  double tdc_drift_c = 0.0;
  bool recalibrate = true;
  double dark_window_probability = 0.0;
  double flaky_window_probability = 0.0;
  double flaky_scale = 1.0;  ///< optical power scale of a flaky window
  /// Per-channel optical power scale (empty = all channels clean):
  /// 0 for a killed channel, 10^(-att/10) for an attenuated survivor.
  std::vector<double> channel_scale;
  /// dead_nodes[i] != 0 -> die i is dead. Empty = all live.
  std::vector<std::uint8_t> dead_nodes;
  /// Row-major dies x dies matrix; broken_links[src*dies+dst] != 0 ->
  /// the (src, dst) path is broken. Empty = all intact.
  std::vector<std::uint8_t> broken_links;
  bool reroute = true;
  bool mac_reclaim = true;

  [[nodiscard]] bool window_faults() const {
    return dark_window_probability > 0.0 || flaky_window_probability > 0.0;
  }
  [[nodiscard]] bool noc_faults() const {
    return !dead_nodes.empty() || !broken_links.empty();
  }
  [[nodiscard]] std::size_t live_nodes() const;
};

/// round(fraction * n): the deterministic element count a fraction
/// selects -- degradation curves step cleanly instead of wobbling on
/// per-element coin flips.
[[nodiscard]] std::uint64_t pick_count(std::uint64_t n, double fraction);

/// Uniform k-subset of {0..n-1} via a Fisher-Yates prefix on `rng`;
/// returned sorted. Draws exactly k uniform_ints.
[[nodiscard]] std::vector<std::uint32_t> pick_subset(std::uint64_t n, std::uint64_t k,
                                                     util::RngStream& rng);

/// Draws the concrete realisation of `spec` from `rng`. Draw order is
/// fixed (WDM channels, then NoC nodes, then links) so realisations are
/// reproducible given the stream; pixel faults are pure counts and
/// consume no draws. The same stream must not be reused for anything
/// else.
[[nodiscard]] Realisation realise(const FaultSpec& spec, const Context& ctx,
                                  util::RngStream& rng);

}  // namespace oci::fault
