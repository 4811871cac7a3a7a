// The batched window kernel behind LinkEngine::simulate_windows: one
// symbol window per lane, each lane a util::CounterRng stream keyed by
// (stream root, lane index), simulated lane by lane.
//
// Bit-stability contract (pinned by engine_batch_test's golden lane
// digests): the kernel uses only exactly-rounded operations (+, -, *,
// /, sqrt, compares, integer ops) plus portable polynomial
// transcendentals -- never libm -- and its translation unit is compiled
// with -ffp-contract=off, so neither the compiler, nor -march, nor the
// standard library can change a single bit of a lane's result.
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

/// Engine constants shared by every lane of a batch (one symbol window
/// per lane, window-local time: the window spans [0, window_s)).
struct BatchParams {
  double lambda_signal = 0.0;   ///< mean avalanche candidates per pulse
  double noise_rate = 0.0;      ///< flat candidate rate [Hz]
  double window_s = 0.0;        ///< TOA window length [s]
  double dead_s = 0.0;          ///< SPAD dead time [s]
  double afterpulse_p = 0.0;
  double afterpulse_tau_s = 0.0;
  double jitter_sigma_s = 0.0;
  double envelope_width_s = 0.0;  ///< LED pulse width [s]
  EnvelopeKind envelope = EnvelopeKind::kRectangular;
  bool passive_quench = false;
};

/// Simulates windows[i] on the counter stream lanes.lane(first_lane + i):
/// reads each lane's pulse_start_s / dead_in_s and writes its outputs
/// (see WindowResult). Allocation-free.
void simulate_windows(const BatchParams& p, std::span<WindowResult> windows,
                      const util::BatchRngStream& lanes, std::uint64_t first_lane);

/// The batched kernel's name, as benchmarks and run environments report it.
struct KernelTable {
  const char* name = "scalar";
};

/// The one batched kernel ("scalar").
[[nodiscard]] const KernelTable& active_kernels();

}  // namespace oci::link::kernels
