#include "oci/electrical/pad.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace oci::electrical {

WireBondPad::WireBondPad(const WireBondPadParams& p) : params_(p) {
  if (p.pad_capacitance.farads() <= 0.0 || p.bond_inductance.henries() <= 0.0) {
    throw std::invalid_argument("WireBondPad: C and L must be positive");
  }
  if (p.max_drive.amperes() <= 0.0 || p.swing.volts() <= 0.0) {
    throw std::invalid_argument("WireBondPad: drive current and swing must be positive");
  }
  if (p.activity_factor < 0.0 || p.activity_factor > 1.0) {
    throw std::invalid_argument("WireBondPad: activity factor must be in [0,1]");
  }
}

Energy WireBondPad::energy_per_bit() const {
  return Energy::joules(params_.activity_factor *
                        util::switching_energy(params_.pad_capacitance, params_.swing).joules());
}

Time WireBondPad::min_transition_time() const {
  const double l = params_.bond_inductance.henries();
  const double c = params_.pad_capacitance.farads();
  const double v = params_.swing.volts();
  const double i = params_.max_drive.amperes();
  // Charge-limited: t = C V / I. Inductance-limited: quarter period of
  // the LC tank, t = (pi/2) sqrt(LC). The true transition cannot beat
  // either bound.
  const double t_charge = c * v / i;
  const double t_lc = (std::numbers::pi / 2.0) * std::sqrt(l * c);
  return Time::seconds(std::max(t_charge, t_lc));
}

BitRate WireBondPad::max_bit_rate() const {
  // An NRZ eye needs at least two transition times per unit interval.
  const double ui = 2.0 * min_transition_time().seconds();
  return BitRate::bits_per_second(1.0 / ui);
}

LinkFigures WireBondPad::figures() const {
  return LinkFigures{
      .name = "wire-bond pad",
      .energy_per_bit = energy_per_bit(),
      .max_bit_rate = max_bit_rate(),
      .footprint = params_.pad_area,
      .max_fanout = 1,
      .broadcast_capable = false,
  };
}

}  // namespace oci::electrical
