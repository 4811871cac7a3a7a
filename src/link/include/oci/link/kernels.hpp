// The window kernel: the one simulator of a SPAD symbol window. One
// lane simulates one window on its own util::CounterRng stream. Two
// drivers key the lanes: the batched simulate_windows (lane i of a
// (stream root, lane index) family, engine's own sources) and
// LinkEngine's per-window transmit_symbol / probe_pulse (one lane keyed
// by a raw draw of the caller's stream, with per-window sources).
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

/// Temporal envelope of the signal pulse, pre-resolved from
/// photonics::PulseShape so the kernel stays free of model headers.
enum class EnvelopeKind : int {
  kRectangular = 0,
  kExponential = 1,
  kGaussian = 2,
};

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
  double envelope_width_s = 0.0;  ///< LED pulse width [s]
  EnvelopeKind envelope = EnvelopeKind::kRectangular;
  bool passive_quench = false;
};

/// Lazy candidate stream of one thinned pulse in a lane: the victim's
/// own or a co-channel aggressor's. For an aggressor the caller fills
/// start_s and lambda and the lane owns the hazard state behind them.
/// Every pulse uses the victim's envelope.
struct PulseSource {
  double start_s = 0.0;  ///< window-local envelope start [s]
  double lambda = 0.0;   ///< mean avalanche candidates (mean_photons x PDP)
  double hazard = 0.0;   ///< cumulative hazard consumed in [0, lambda)
  double next_s = 0.0;   ///< next candidate arrival [s] (+inf = exhausted)
  bool exhausted = false;
};

/// Per-window sources of one lane beside the engine constants.
struct LaneSources {
  double lambda_signal = 0.0;  ///< victim's candidate mean (x signal_scale)
  double noise_rate = 0.0;     ///< flat candidate rate [Hz]
  std::span<PulseSource> aggressors = {};
  /// Proposal to sample under; the lane resets and fills log_weight.
  RareSampling* rare = nullptr;
};

/// Simulates one window on `rng`: reads w.pulse_start_s / w.dead_in_s
/// and writes the outputs (see WindowResult). Draw order: the signal
/// hazard (when lambda_signal > 0), each aggressor's (when its lambda >
/// 0), then the first noise arrival (when noise_rate > 0). Ties go to
/// the signal, then aggressors in order, then noise, then afterpulses.
/// Allocation-free.
void simulate_lane(const BatchParams& p, const LaneSources& in, WindowResult& w,
                   util::CounterRng rng);

/// Batched driver: simulates windows[i] on lanes.lane(first_lane + i)
/// with the engine's own lambda and noise rate, no aggressors and no
/// proposal.
void simulate_windows(const BatchParams& p, std::span<WindowResult> windows,
                      const util::BatchRngStream& lanes, std::uint64_t first_lane);

/// The window kernel's name, as benchmarks and run environments report it.
struct KernelTable {
  const char* name = "scalar";
};

/// The one window kernel ("scalar").
[[nodiscard]] const KernelTable& active_kernels();

}  // namespace oci::link::kernels
