#include "oci/electrical/capacitive.hpp"

#include <stdexcept>

namespace oci::electrical {

namespace {
constexpr double kEpsilon0 = 8.8541878128e-12;  // vacuum permittivity [F/m]
}

CapacitiveLink::CapacitiveLink(const CapacitiveLinkParams& p) : params_(p) {
  if (p.plate_side.metres() <= 0.0 || p.gap.metres() <= 0.0) {
    throw std::invalid_argument("CapacitiveLink: geometry must be positive");
  }
  if (p.relative_permittivity < 1.0) {
    throw std::invalid_argument("CapacitiveLink: relative permittivity must be >= 1");
  }
}

Capacitance CapacitiveLink::coupling_at(Length gap) const {
  const double area = params_.plate_side.metres() * params_.plate_side.metres();
  return Capacitance::farads(kEpsilon0 * params_.relative_permittivity * area / gap.metres());
}

Capacitance CapacitiveLink::coupling_capacitance() const { return coupling_at(params_.gap); }

bool CapacitiveLink::link_feasible() const {
  return coupling_capacitance().farads() >= params_.min_usable_coupling.farads();
}

Energy CapacitiveLink::energy_per_bit() const {
  // Driver swings plate + equal parasitic: 2 C V^2 at activity 0.5 -> C V^2.
  return util::switching_energy(coupling_capacitance(), params_.swing) +
         params_.rx_energy_per_bit;
}

LinkFigures CapacitiveLink::figures() const {
  const double side = params_.plate_side.metres();
  return LinkFigures{
      .name = "capacitive proximity",
      .energy_per_bit = energy_per_bit(),
      .max_bit_rate = link_feasible() ? params_.per_channel_rate
                                      : BitRate::bits_per_second(0.0),
      .footprint = Area::square_metres(side * side),
      .max_fanout = 1,
      .broadcast_capable = false,
  };
}

}  // namespace oci::electrical
