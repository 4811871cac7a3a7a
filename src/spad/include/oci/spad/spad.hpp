// Stochastic SPAD detector: converts photon arrivals into avalanche
// detection events, modelling PDP thinning, dark counts, the
// non-paralyzable dead time of active quench, afterpulsing, and timing
// jitter.
#pragma once

#include <span>
#include <vector>

#include "oci/photonics/photon_stream.hpp"
#include "oci/spad/params.hpp"
#include "oci/util/random.hpp"

namespace oci::spad {

using photonics::PhotonArrival;
using util::RngStream;

/// What triggered a recorded avalanche.
enum class DetectionCause { kSignal, kDark, kAfterpulse, kBackground };

struct Detection {
  Time time;              ///< timestamp as seen by downstream logic (jittered)
  Time true_time;         ///< physical avalanche time (pre-jitter)
  DetectionCause cause = DetectionCause::kSignal;
};

class Spad {
 public:
  Spad(const SpadParams& params, Wavelength operating_wavelength,
       Temperature temperature = Temperature::celsius(20.0));

  [[nodiscard]] const SpadParams& params() const { return params_; }
  [[nodiscard]] double pdp() const { return pdp_; }
  [[nodiscard]] Frequency dcr() const { return dcr_; }
  [[nodiscard]] Temperature temperature() const { return temperature_; }

  /// Change the junction temperature (recomputes DCR).
  void set_temperature(Temperature t);

  /// Simulates the detector over [window_start, window_start + window).
  /// `photons` must be time-sorted and lie inside the window. The
  /// detector is assumed armed (not dead) at window start unless
  /// `initially_dead_until` says otherwise. Returns time-sorted
  /// detections. Afterpulses may cascade; dark counts are generated
  /// internally.
  [[nodiscard]] std::vector<Detection> detect(std::span<const PhotonArrival> photons,
                                              Time window_start, Time window,
                                              RngStream& rng,
                                              Time initially_dead_until = Time::zero()) const;

  /// Probability that a pulse delivering `mean_photons` (Poisson) yields
  /// at least one avalanche: 1 - exp(-mean_photons * PDP).
  [[nodiscard]] double pulse_detection_probability(double mean_photons) const;

  /// Mean photons required at the detector for the given per-pulse
  /// detection probability.
  [[nodiscard]] double required_mean_photons(double detection_probability) const;

 private:
  SpadParams params_;
  Wavelength wavelength_;
  Temperature temperature_;
  double pdp_ = 0.0;
  Frequency dcr_;
};

}  // namespace oci::spad
