// Stochastic photon-arrival generation: converts a deterministic optical
// pulse (LED envelope x channel transmittance) into Poisson photon
// arrival times at a detector, plus background (ambient/stray) photons.
#pragma once

#include <vector>

#include "oci/photonics/led.hpp"
#include "oci/util/random.hpp"
#include "oci/util/samplers.hpp"
#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Frequency;
using util::RngStream;
using util::Time;

/// One photon impinging on the detector plane.
struct PhotonArrival {
  Time time;            ///< absolute arrival time
  bool is_signal = true;  ///< false for background/stray photons
};

struct PulseDelivery {
  double mean_signal_photons = 0.0;  ///< mean photons reaching the detector
  Time pulse_start;                  ///< absolute start of the pulse envelope
};

/// Generates Poisson arrivals for signal pulses and background flux.
class PhotonStream {
 public:
  PhotonStream(const MicroLed& led, double channel_transmittance);

  /// Draws the signal photons of one pulse starting at `pulse_start`.
  /// Arrival times follow the LED envelope. Sorted by time.
  [[nodiscard]] std::vector<PhotonArrival> sample_pulse(Time pulse_start,
                                                        RngStream& rng) const;

  /// Draws background photons with the given mean rate over
  /// [window_start, window_start + window). Sorted by time.
  [[nodiscard]] static std::vector<PhotonArrival> sample_background(
      Frequency rate, Time window_start, Time window, RngStream& rng);

  /// Merges (by time) two arrival sequences. Steals instead of copying:
  /// an empty side moves the other out unchanged, and the general case
  /// grows `a`'s buffer and merges from the back, so the retained
  /// reference pipeline's signal+background+interference chain reuses
  /// one buffer instead of allocating a fresh output per merge. Stable
  /// (ties keep `a` before `b`), like std::merge.
  [[nodiscard]] static std::vector<PhotonArrival> merge(std::vector<PhotonArrival> a,
                                                        std::vector<PhotonArrival> b);

 private:
  const MicroLed* led_;
  double transmittance_;
  /// Photon-count sampler for the stream's fixed per-pulse mean.
  util::PoissonSampler pulse_count_;
};

}  // namespace oci::photonics
