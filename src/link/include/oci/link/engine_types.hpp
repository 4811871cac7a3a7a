// Vocabulary types of the LinkEngine's window simulator: the per-window
// request of transmit_symbol (SourcePulse, RareSampling, WindowRequest)
// used by WdmLink, bus::VerticalBus, oci::rare and the scenario runner,
// the kernel lane's inputs and outputs (WindowResult), and the batched
// drivers' staging (EngineBatchScratch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::link {

/// One pulsed photon source as the victim SPAD sees it: a pulse
/// starting at `start` that delivers `mean_photons` photons (Poisson)
/// to the victim's detector plane. The engine thins by the victim's PDP
/// internally, so callers pass OPTICAL means: photons/pulse x the
/// collected fraction along that aggressor's path (demux leakage,
/// stack transmittance, coupling). Every aggressor shares the victim
/// LED's temporal envelope: the links that merge pulses (WDM channels,
/// bus talkers) are built from one LED template, whose per-channel
/// wavelength and peak power enter `mean_photons` only.
struct SourcePulse {
  double mean_photons = 0.0;
  util::Time start;
};

/// Proposal-distribution controls for rare-event accelerated symbols
/// (WindowRequest::rare). The engine samples the window
/// under the TILTED measure described here and accumulates the exact
/// log likelihood-ratio of the trajectory in `log_weight`, so
/// exp(log_weight) turns every tilted outcome back into an unbiased
/// contribution under the natural measure. Drivers in oci::rare own
/// the policy (which factors, which bands); this struct is only the
/// mechanism.
struct RareSampling {
  /// TDC jitter proposal: sample from N(0, (jitter_scale x sigma)^2).
  /// 1 = natural. Ignored when `condition_jitter` is set.
  double jitter_scale = 1.0;
  /// Flat noise-candidate rate proposal: simulate at rate x noise_scale.
  /// 1 = natural.
  double noise_scale = 1.0;
  /// Stratified-splitting mode: draw the jitter MAGNITUDE from the
  /// half-normal conditioned to the band whose two-sided survival
  /// S(z) = P(|Z| >= z) spans (band_survival_hi, band_survival_lo].
  /// The band selection weight is applied by the driver, not here.
  bool condition_jitter = false;
  double band_survival_lo = 1.0;  ///< S at the band's near (low-z) edge
  double band_survival_hi = 0.0;  ///< S at the band's far (high-z) edge
  /// Out: accumulated log likelihood-ratio (natural / proposal) of the
  /// current symbol's trajectory. Reset by every transmit_symbol call
  /// that carries it.
  double log_weight = 0.0;
};

/// Per-window options of LinkEngine::transmit_symbol. Every default is
/// an exact no-op, so `{}` runs the plain single-source window draw for
/// draw and the fields combine freely.
struct WindowRequest {
  /// Launched-pulse scale: 0 = dark window (the driver dropped the
  /// pulse), (0,1) = flaky window (attenuated launch). Energy/period
  /// accounting is unchanged -- the transmitter still spent the slot.
  double signal_scale = 1.0;
  /// Co-channel pulses merged with the victim's own (WDM leakage,
  /// neighbour crosstalk, colliding bus talkers). An aggressor trigger
  /// that wins the TDC conversion counts as a noise capture, exactly
  /// like the reference pipeline's interference photons.
  std::span<const SourcePulse> aggressors = {};
  /// Tilted/conditioned proposal to sample the window under; its
  /// log_weight is reset, then holds the window's log likelihood-ratio,
  /// so exp(log_weight) re-weights the outcome to the natural measure.
  RareSampling* rare = nullptr;
};

/// One window-kernel lane (kernels::simulate_lane, and the batched
/// LinkEngine::simulate_windows). Times are WINDOW-LOCAL seconds: the
/// window spans [0, toa_window). The caller fills the input fields; the
/// kernel writes the outputs. `dead_in_s` may be non-positive (an inert
/// carry), and `dead_out_s` reports the lane's final blind horizon.
struct WindowResult {
  // Inputs.
  double pulse_start_s = 0.0;  ///< signal envelope start (PPM slot offset)
  double dead_in_s = 0.0;      ///< blind carry into this window
  // Outputs.
  bool fired = false;
  bool first_is_signal = false;
  double first_fire_s = 0.0;     ///< pre-jitter first avalanche (+inf if none)
  double first_observed_s = 0.0; ///< jittered timestamp of the first avalanche
  double last_fire_s = 0.0;      ///< pre-jitter time of the last avalanche
  double dead_out_s = 0.0;       ///< final blind horizon of the lane
  std::uint64_t rng_draws = 0;   ///< counter-RNG draws this lane consumed
};

/// Reusable staging of the batched symbol drivers (run_symbols /
/// run_sequence): one scratch per calling thread, the engine owning its
/// own. reserve() pre-sizes every buffer so steady-state batches are
/// allocation-free. simulate_windows takes one for source compatibility
/// but keeps every lane's state on the stack.
class EngineBatchScratch {
 public:
  EngineBatchScratch() = default;

  /// Pre-sizes every staging buffer for batches of up to `lanes`.
  void reserve(std::size_t lanes);

 private:
  friend class LinkEngine;

  std::vector<WindowResult> windows_;
  std::vector<std::uint64_t> symbols_;
  std::vector<std::uint64_t> decoded_;
  std::vector<std::uint8_t> erased_;
};

}  // namespace oci::link
