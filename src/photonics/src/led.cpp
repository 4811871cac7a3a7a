#include "oci/photonics/led.hpp"

#include <cmath>

#include "oci/util/math.hpp"

namespace oci::photonics {

namespace {
// Gaussian sigma such that ~99.7% of the energy lies inside the pulse
// width for the kGaussian shape (width = 6 sigma).
constexpr double kGaussianWidthSigmas = 6.0;

using util::erfinv;
}  // namespace

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
  // All supported envelopes are normalised to carry peak_power x width.
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
  const double w = params_.pulse_width.seconds();
  switch (params_.shape) {
    case PulseShape::kRectangular:
      return Time::seconds(u * w);
    case PulseShape::kExponential:
      return Time::seconds(-w * std::log(1.0 - u));
    case PulseShape::kGaussian: {
      const double sigma = w / kGaussianWidthSigmas;
      const double mu = w / 2.0;
      // Inverse normal CDF via inverse error function.
      const double z = std::sqrt(2.0) * erfinv(2.0 * u - 1.0);
      double t = mu + sigma * z;
      if (t < 0.0) t = 0.0;  // clip the (<0.2%) tail below pulse start
      return Time::seconds(t);
    }
  }
  return Time::zero();
}

}  // namespace oci::photonics
