// Parameter set of a CMOS single-photon avalanche diode, defaulted to
// figures representative of the Niclass/Charbon ISSCC 2005 64x64 array
// generation (the paper's ref [5]).
#pragma once

#include "oci/util/units.hpp"

namespace oci::spad {

using util::Area;
using util::Frequency;
using util::Temperature;
using util::Time;
using util::Wavelength;

struct SpadParams {
  /// Photon detection probability at the curve peak, at the one excess
  /// bias the diode runs at (3.3 V above breakdown).
  double pdp_peak = 0.30;
  /// Detection cycle: time after an avalanche during which the diode is
  /// blind (quench + recharge). Tens of ns for this device generation.
  /// The diode is actively quenched, so the dead time is
  /// non-paralyzable: a photon absorbed while blind is simply lost.
  Time dead_time = Time::nanoseconds(40.0);
  /// Dark-count rate at the reference temperature.
  Frequency dcr_at_ref = Frequency::hertz(350.0);
  Temperature dcr_ref_temperature = Temperature::celsius(25.0);
  /// DCR doubles every this many kelvin (thermally generated carriers).
  double dcr_doubling_kelvin = 8.0;
  /// Probability that one avalanche later releases a trapped carrier
  /// that re-triggers the diode (afterpulse).
  double afterpulse_probability = 0.01;
  /// Mean trap-release delay measured from the end of the dead time.
  Time afterpulse_tau = Time::nanoseconds(50.0);
  /// Gaussian timing jitter (sigma, not FWHM) of the avalanche buildup.
  Time jitter_sigma = Time::picoseconds(42.5);  // ~100 ps FWHM
  /// Active area + quench circuitry footprint.
  Area footprint = Area::square_micrometres(30.0 * 30.0);
};

}  // namespace oci::spad
