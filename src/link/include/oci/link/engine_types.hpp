// Vocabulary types of the LinkEngine's window simulator: the driver's
// per-window inputs (WindowInputs, with the RareSampling proposal) used
// by WdmLink, bus::VerticalBus, oci::rare and the scenario runner, the
// kernel lane's outputs (WindowResult) and aggressor states
// (PulseSource), and the driver's staging (EngineBatchScratch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace oci::link {

/// Proposal-distribution controls for rare-event accelerated symbols
/// (WindowInputs::rare). The engine samples each window under the
/// TILTED measure described here and accumulates the exact log
/// likelihood-ratio of its trajectory in WindowResult::log_weight, so
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
};

/// One window-kernel lane (kernels::simulate_windows, and
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
  /// Log likelihood-ratio (natural / proposal) of the lane's trajectory
  /// under the batch's rare-event proposal; 0 without one.
  double log_weight = 0.0;
};

/// Lazy candidate stream of one aggressor pulse in a lane. The caller
/// fills start_s and lambda; the lane owns the hazard state behind
/// them. Every pulse uses the victim's envelope.
struct PulseSource {
  double start_s = 0.0;  ///< window-local envelope start [s]
  double lambda = 0.0;   ///< mean avalanche candidates (mean_photons x PDP)
  double hazard = 0.0;   ///< cumulative hazard consumed in [0, lambda)
  double next_s = 0.0;   ///< next candidate arrival [s] (+inf = exhausted)
  bool exhausted = false;
};

/// Per-window inputs of LinkEngine's batched drivers beside the
/// symbols. Window j of a driver call reads entry j of every per-window
/// span (empty = that input is off); a driver throws
/// std::invalid_argument on a span of another length. Every default is
/// an exact no-op, so `{}` runs the plain window draw for draw, and the
/// fields combine freely.
struct WindowInputs {
  /// Launched-pulse scale of window j: 0 = dark window (the driver
  /// dropped the pulse), (0,1) = flaky window (attenuated launch).
  /// Energy/period accounting is unchanged -- the transmitter still
  /// spent the slot.
  std::span<const double> signal_scale = {};
  /// Co-channel pulses merged with the victim's own (WDM leakage,
  /// neighbour crosstalk, colliding bus talkers): the OPTICAL mean
  /// photons each aggressor delivers to the victim's detector plane
  /// (photons/pulse x the collected fraction along its path). The
  /// engine thins them by the victim's PDP. An aggressor trigger that
  /// wins the TDC conversion counts as a noise capture, exactly like
  /// the reference pipeline's interference photons.
  std::span<const double> aggressor_means = {};
  /// Window-local pulse start [s] of each aggressor: K =
  /// aggressor_means.size() entries apply to every window (fixed
  /// offsets); otherwise aggressor k in window j is at [j * K + k].
  std::span<const double> aggressor_starts_s = {};
  /// Tilted/conditioned proposal every window samples under; each
  /// window's log likelihood-ratio comes back in its
  /// WindowResult::log_weight, so exp(log_weight) re-weights the
  /// outcome to the natural measure.
  const RareSampling* rare = nullptr;
  /// I.i.d. windows: each one starts with the SPAD armed, so no dead
  /// time carries from one window into the next.
  bool independent = false;
};

/// Reusable staging of the symbol driver (run_symbols / run_sequence):
/// one scratch per calling thread, the engine owning its own. reserve()
/// pre-sizes every buffer so steady-state batches are allocation-free.
/// simulate_windows takes one for source compatibility but keeps every
/// lane's state on the stack.
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
  /// The batch's aggressor states, lane-major (sized on first use).
  std::vector<PulseSource> aggressors_;
};

}  // namespace oci::link
