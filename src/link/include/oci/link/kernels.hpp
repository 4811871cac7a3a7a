// The window kernel: the one simulator of a SPAD symbol window -- a
// rectangular micro-LED pulse on an actively quenched SPAD. One lane
// simulates one window on its own util::CounterRng stream; a batch
// runs windows[i] on lane (first_lane + i) of a (stream root, lane
// index) family, with the engine's own sources or with per-lane inputs
// (LaneInputs). Every LinkEngine driver runs its windows through it.
//
// Bit-stability contract (pinned by engine_batch_test's golden lane
// digests): the kernel uses only exactly-rounded operations (+, -, *,
// /, sqrt, compares, integer ops) plus portable polynomial
// transcendentals -- never libm -- and, like every oci library, it is
// compiled with -ffp-contract=off, so neither the compiler, nor -march,
// nor the standard library can change a single bit of a lane's result.
#pragma once

#include <cstdint>
#include <span>

#include "oci/link/engine_types.hpp"
#include "oci/util/batch_rng.hpp"

namespace oci::link::kernels {

/// Engine constants shared by every lane (window-local time: the window
/// spans [0, window_s)). LinkEngine builds one at construction.
struct BatchParams {
  double lambda_signal = 0.0;   ///< engine's mean avalanche candidates per pulse
  double noise_rate = 0.0;      ///< engine's flat candidate rate [Hz]
  double window_s = 0.0;        ///< TOA window length [s]
  double dead_s = 0.0;          ///< SPAD dead time [s]
  double afterpulse_p = 0.0;
  double afterpulse_tau_s = 0.0;
  double jitter_sigma_s = 0.0;
  double envelope_width_s = 0.0;  ///< LED pulse width [s]: rectangular pulse
};

/// Per-lane inputs of one batch beside the engine constants. Every
/// default is the plain window: a batch without aggressors or proposal
/// runs the lane instantiation that has no code for them.
struct LaneInputs {
  /// Launched-pulse scale of lane i (the victim's lambda x scale,
  /// negative clamped to 0); empty = 1 for every lane.
  std::span<const double> signal_scale = {};
  /// Aggressor pulses, lane-major: lane i owns [i * K, (i + 1) * K)
  /// for K = aggressors.size() / windows.size(). The caller fills
  /// start_s and lambda (mean photons x victim PDP); the lane resets
  /// the hazard state behind them.
  std::span<PulseSource> aggressors = {};
  /// Proposal every lane samples under; each lane writes its log
  /// likelihood-ratio to WindowResult::log_weight.
  const RareSampling* rare = nullptr;
};

/// Simulates windows[i] on lanes.lane(first_lane + i): reads
/// pulse_start_s / dead_in_s and writes the outputs (see WindowResult).
/// Draw order within a lane: the signal hazard (when its lambda > 0),
/// each aggressor's (when its lambda > 0), then the first noise arrival
/// (when the noise rate > 0); then, per avalanche, the first one's
/// jitter, the afterpulse coin (and its delay on success), and the
/// fired source's next candidate. A noise arrival's uniform is always
/// drawn, but without a noise tilt it is turned into a time only when
/// it can land before the horizon max(window + dead time, dead_in_s);
/// past it the arrival reads as never. The SPAD is actively quenched: a
/// fired pulse restarts at the new dead-time horizon, drawing only when
/// envelope mass remains past it (a pulse shorter than the dead time
/// draws nothing). A lane's TDC conversion continues its stream after
/// WindowResult::rng_draws. Ties go to the signal, then aggressors in
/// order, then noise, then afterpulses. Allocation-free.
void simulate_windows(const BatchParams& p, std::span<WindowResult> windows,
                      const util::BatchRngStream& lanes, std::uint64_t first_lane,
                      const LaneInputs& in = {});

/// The window kernel's name, as benchmarks and run environments report it.
struct KernelTable {
  const char* name = "scalar";
};

/// The one window kernel ("scalar").
[[nodiscard]] const KernelTable& active_kernels();

}  // namespace oci::link::kernels
