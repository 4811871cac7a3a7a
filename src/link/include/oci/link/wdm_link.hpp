// WDM optical interconnect: several micro-LED/SPAD PPM channels share
// one physical through-silicon path on a wavelength grid. Each channel
// is a full OpticalLink at its own wavelength (its SPAD's PDP and the
// silicon path loss are wavelength-dependent); the receiver demux has
// finite isolation, so every window each victim SPAD also sees a
// Poisson trickle of its neighbours' pulses. Crosstalk photons that
// fire the detector first decode as noise captures -- exactly the
// failure mode the abl_wdm bench sweeps against channel spacing.
//
// Transport runs on the multi-source LinkEngine, one driver run per
// channel: each victim window merges its own pulse with K-1 aggressor
// pulses (one per other channel, mean = photons/pulse x collected
// fraction) instead of materialising, sorting and per-photon-thinning
// leaked photons. The
// old materialised pipeline is retained as transmit_reference /
// measure_reference -- the statistical oracle the engine path is
// z-tested against, and deliberately NOT called by any bench loop.
//
// Approximation: leaked photons are detected with the VICTIM channel's
// PDP. Grid spacings are tens of nm where the PDP curve is smooth, so
// the neighbouring channels' true PDP differs by only a few percent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "oci/link/optical_link.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/photonics/wdm.hpp"

namespace oci::link {

struct WdmLinkConfig {
  photonics::WdmGrid grid;
  photonics::WdmFilter filter;
  /// Per-channel template; `led.wavelength` and `channel_transmittance`
  /// are overridden per channel.
  OpticalLinkConfig base;
  /// Wavelength-independent path transmittance (geometry/coupling).
  double path_transmittance = 0.5;
  /// Optional die stack: when set, the wavelength-dependent silicon
  /// absorption between from_die and to_die multiplies the path.
  /// Non-owning; must outlive the WdmLink.
  const photonics::DieStack* stack = nullptr;
  std::size_t from_die = 0;
  std::size_t to_die = 1;
  /// Per-channel LAUNCH power scale (fault injection): 0 kills the
  /// channel's laser outright -- its traffic is lost AND its leakage
  /// into neighbours vanishes with it -- while (0,1) models an aged
  /// driver. Empty (the default) = every channel at full power;
  /// otherwise one entry per grid channel, each >= 0.
  std::vector<double> channel_power_scale;
};

class WdmLink {
 public:
  WdmLink(const WdmLinkConfig& config, util::RngStream& process_rng);

  [[nodiscard]] std::size_t channels() const { return links_.size(); }
  [[nodiscard]] const OpticalLink& channel(std::size_t i) const { return *links_.at(i); }
  [[nodiscard]] const WdmLinkConfig& config() const { return config_; }
  /// Fraction of channel j's launched photons collected by receiver i
  /// (path x filter).
  [[nodiscard]] double collected_fraction(std::size_t receiver, std::size_t source) const;

  struct RunResult {
    std::vector<OpticalLink::RunResult> per_channel;
    /// Sum over channels of error-free bits / elapsed time.
    [[nodiscard]] util::BitRate aggregate_goodput() const;
    [[nodiscard]] double worst_symbol_error_rate() const;
  };

  /// Transmits symbol-aligned streams, one per channel (all streams
  /// must have equal length), with inter-channel crosstalk applied.
  /// Runs on the multi-source LinkEngine fast path.
  [[nodiscard]] RunResult transmit(const std::vector<std::vector<std::uint64_t>>& symbols,
                                   util::RngStream& rng) const;

  /// Random symbols on every channel; returns the crosstalk-loaded
  /// per-channel stats.
  [[nodiscard]] RunResult measure(std::uint64_t symbols_per_channel,
                                  util::RngStream& rng) const;

  /// Statistical oracle: same contract as transmit(), but every window
  /// materialises the leaked aggressor photons and runs the reference
  /// per-photon pipeline (transmit_symbol_reference). Orders of
  /// magnitude slower; only regression tests and the engine-vs-
  /// reference microbenches should call it.
  [[nodiscard]] RunResult transmit_reference(
      const std::vector<std::vector<std::uint64_t>>& symbols, util::RngStream& rng) const;

  /// Random-symbol flavour of transmit_reference.
  [[nodiscard]] RunResult measure_reference(std::uint64_t symbols_per_channel,
                                            util::RngStream& rng) const;

 private:
  /// Throws unless `symbols` is one equal-length stream per channel.
  void check_streams(const std::vector<std::vector<std::uint64_t>>& symbols) const;

  /// Equal-length random symbol streams, one per channel.
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> random_streams(
      std::uint64_t symbols_per_channel, util::RngStream& rng) const;

  /// Path transmittance for channel wavelength (excl. filter).
  [[nodiscard]] double path_for(std::size_t channel) const;

  WdmLinkConfig config_;
  std::vector<std::unique_ptr<OpticalLink>> links_;
  std::vector<std::vector<double>> crosstalk_;  ///< leakage matrix
};

}  // namespace oci::link
