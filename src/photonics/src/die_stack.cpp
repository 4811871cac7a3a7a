#include "oci/photonics/die_stack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "oci/photonics/silicon.hpp"

namespace oci::photonics {

DieStack::DieStack(std::vector<DieSpec> dies) : dies_(std::move(dies)) {
  if (dies_.empty()) throw std::invalid_argument("DieStack: need at least one die");
  for (const auto& d : dies_) {
    if (d.thickness <= Length::metres(0.0)) {
      throw std::invalid_argument("DieStack: die thickness must be positive");
    }
    if (d.interface_coupling <= 0.0 || d.interface_coupling > 1.0) {
      throw std::invalid_argument("DieStack: interface coupling must be in (0,1]");
    }
  }
}

DieStack DieStack::uniform(std::size_t count, const DieSpec& spec) {
  return DieStack(std::vector<DieSpec>(count, spec));
}

Length DieStack::silicon_path(std::size_t from, std::size_t to) const {
  if (from >= dies_.size() || to >= dies_.size()) {
    throw std::out_of_range("DieStack: die index out of range");
  }
  const auto lo = std::min(from, to);
  const auto hi = std::max(from, to);
  double metres = 0.0;
  for (std::size_t i = lo + 1; i < hi; ++i) metres += dies_[i].thickness.metres();
  return Length::metres(metres);
}

double DieStack::transmittance(std::size_t from, std::size_t to, Wavelength lambda) const {
  if (from == to) return 1.0;
  const double bulk = transmittance_si(lambda, silicon_path(from, to));
  const auto lo = std::min(from, to);
  const auto hi = std::max(from, to);
  double coupling = 1.0;
  // One interface per die boundary crossed; use the coupling of the die
  // on the lower side of each boundary.
  for (std::size_t i = lo; i < hi; ++i) coupling *= dies_[i].interface_coupling;
  return bulk * coupling;
}

std::size_t DieStack::max_reach(Wavelength lambda, double min_transmittance) const {
  std::size_t reach = 0;
  for (std::size_t to = 1; to < dies_.size(); ++to) {
    if (transmittance(0, to, lambda) >= min_transmittance) reach = to;
  }
  return reach;
}

double CrosstalkModel::fraction_at(Length distance) const {
  if (distance.metres() <= 0.0) return 1.0;
  return std::exp(-distance.metres() / decay_length.metres());
}

}  // namespace oci::photonics
