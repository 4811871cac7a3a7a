#include "oci/photonics/led.hpp"

namespace oci::photonics {

MicroLed::MicroLed(const MicroLedParams& params) : params_(params) {
  if (params_.pulse_width <= Time::zero()) {
    throw std::invalid_argument("MicroLed: pulse width must be positive");
  }
  if (params_.wall_plug_efficiency <= 0.0 || params_.wall_plug_efficiency > 1.0) {
    throw std::invalid_argument("MicroLed: wall-plug efficiency must be in (0,1]");
  }
  if (params_.peak_power < Power::zero()) {
    throw std::invalid_argument("MicroLed: peak power must be non-negative");
  }
}

Energy MicroLed::optical_pulse_energy() const {
  return params_.peak_power * params_.pulse_width;
}

Energy MicroLed::electrical_pulse_energy() const {
  const Energy emission =
      Energy::joules(optical_pulse_energy().joules() / params_.wall_plug_efficiency);
  const Energy driver = util::switching_energy(params_.driver_load, params_.supply);
  return emission + driver;
}

double MicroLed::photons_per_pulse() const {
  return util::photon_count(optical_pulse_energy(), params_.wavelength);
}

Time MicroLed::sample_emission_time(double u) const {
  return Time::seconds(u * params_.pulse_width.seconds());
}

}  // namespace oci::photonics
