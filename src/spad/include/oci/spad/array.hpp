// SPAD array receiver: M diodes share one optical channel and their
// outputs are OR-ed. While one diode recovers, the others stay live, so
// the array's effective dead time shrinks roughly by 1/M -- the standard
// mitigation for the single-SPAD detection-cycle bottleneck the paper
// works around with PPM. Combining both (array + PPM) shortens the
// usable DC(N,C) and raises TP.
#pragma once

#include <cstddef>
#include <vector>

#include "oci/spad/spad.hpp"

namespace oci::spad {

struct SpadArrayParams {
  SpadParams element;       ///< per-diode parameters
  std::size_t diodes = 4;   ///< M
  /// Optical fill: fraction of channel photons hitting ANY diode. The
  /// optical spot is assumed to cover the whole array, so an arriving
  /// photon is absorbed by a uniformly chosen ARMED diode when one
  /// exists (ideal load balancing -- the dead-time/M multiplexed-bank
  /// model); only when every diode is recovering is the photon lost.
  double fill_factor = 0.8;
};

class SpadArray {
 public:
  SpadArray(const SpadArrayParams& params, Wavelength operating_wavelength,
            Temperature temperature = Temperature::celsius(20.0));

  [[nodiscard]] const SpadArrayParams& params() const { return params_; }
  [[nodiscard]] std::size_t size() const { return params_.diodes; }
  [[nodiscard]] double pdp() const;  ///< per-photon detection prob incl. fill

  /// Simulates the array over a window: photons are thinned by
  /// fill-factor x PDP, then absorbed by a uniformly chosen armed diode
  /// (see SpadArrayParams::fill_factor for the load-balancing model).
  /// Dark counts and afterpulses stay tied to their own diode. The
  /// OR-ed detections are returned time-sorted. `dead_until` carries
  /// each diode's blind interval across calls; pass a vector of size()
  /// zeros initially.
  [[nodiscard]] std::vector<Detection> detect(
      std::span<const photonics::PhotonArrival> photons, Time window_start, Time window,
      util::RngStream& rng, std::vector<Time>& dead_until) const;

  /// Effective dead time of the OR-ed output under low flux: the window
  /// during which ALL diodes are simultaneously blind after a burst is
  /// ~ dead/M for Poisson-split arrivals; we report dead/M as the
  /// design-rule figure used to pick DC(N,C).
  [[nodiscard]] Time effective_dead_time() const;

 private:
  SpadArrayParams params_;
  std::vector<Spad> diodes_;
};

}  // namespace oci::spad
