#include "oci/photonics/wdm.hpp"

#include <cmath>
#include <stdexcept>

namespace oci::photonics {

Wavelength WdmGrid::wavelength(std::size_t i) const {
  if (i >= channels) throw std::out_of_range("WdmGrid: channel index out of range");
  if (channels == 0) throw std::out_of_range("WdmGrid: empty grid");
  // Channel i sits at center + (i - (channels-1)/2) * spacing.
  const double offset =
      (static_cast<double>(i) - static_cast<double>(channels - 1) / 2.0) *
      spacing.nanometres();
  return Wavelength::nanometres(center.nanometres() + offset);
}

double WdmFilter::leakage(std::size_t receiver, std::size_t source) const {
  if (receiver == source) return passband_transmittance;
  const auto separation = receiver > source ? receiver - source : source - receiver;
  double isolation_db =
      adjacent_isolation_db + rolloff_db_per_channel * static_cast<double>(separation - 1);
  if (isolation_db > isolation_floor_db) isolation_db = isolation_floor_db;
  // Leakage is measured relative to the passband: a 25 dB-isolated
  // neighbour delivers passband/10^2.5 of its power.
  return passband_transmittance * std::pow(10.0, -isolation_db / 10.0);
}

std::vector<std::vector<double>> crosstalk_matrix(const WdmGrid& grid,
                                                  const WdmFilter& filter) {
  std::vector<std::vector<double>> m(grid.channels, std::vector<double>(grid.channels, 0.0));
  for (std::size_t i = 0; i < grid.channels; ++i) {
    for (std::size_t j = 0; j < grid.channels; ++j) {
      m[i][j] = filter.leakage(i, j);
    }
  }
  return m;
}

}  // namespace oci::photonics
