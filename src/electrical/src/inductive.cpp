#include "oci/electrical/inductive.hpp"

#include <stdexcept>

namespace oci::electrical {

InductiveLink::InductiveLink(const InductiveLinkParams& p) : params_(p) {
  if (p.coil_diameter.metres() <= 0.0 || p.separation.metres() <= 0.0) {
    throw std::invalid_argument("InductiveLink: geometry must be positive");
  }
  if (p.k_at_diameter <= 0.0 || p.k_at_diameter >= 1.0) {
    throw std::invalid_argument("InductiveLink: k_at_diameter must be in (0,1)");
  }
}

double InductiveLink::coupling_at(Length separation) const {
  // Magnetic dipole near field: k ~ k0 (D/x)^3 for x >= D, saturating at
  // k0 for closer spacing.
  const double ratio = params_.coil_diameter.metres() / separation.metres();
  if (ratio >= 1.0) return params_.k_at_diameter;
  return params_.k_at_diameter * ratio * ratio * ratio;
}

double InductiveLink::coupling() const { return coupling_at(params_.separation); }

bool InductiveLink::link_feasible() const {
  return coupling() >= params_.min_usable_coupling;
}

LinkFigures InductiveLink::figures() const {
  const double d = params_.coil_diameter.metres();
  return LinkFigures{
      .name = "inductive coupling",
      .energy_per_bit = params_.tx_energy_per_bit + params_.rx_energy_per_bit,
      .max_bit_rate = link_feasible() ? params_.per_channel_rate
                                      : BitRate::bits_per_second(0.0),
      .footprint = Area::square_metres(d * d),  // coil bounding box
      .max_fanout = 1,
      .broadcast_capable = false,
  };
}

}  // namespace oci::electrical
