#include "oci/photonics/waveguide.hpp"

#include <cmath>
#include <stdexcept>

namespace oci::photonics {

double db_to_linear(double db) { return std::pow(10.0, -db / 10.0); }

Waveguide::Waveguide(const WaveguideParams& params) : params_(params) {
  if (params_.propagation_loss_db_per_cm < 0.0 || params_.bend_loss_db < 0.0 ||
      params_.coupling_loss_db < 0.0 || params_.splitter_excess_db < 0.0) {
    throw std::invalid_argument("Waveguide: losses must be non-negative");
  }
}

double Waveguide::loss_db(Length route, std::size_t bends) const {
  const double cm = route.metres() * 100.0;
  return params_.propagation_loss_db_per_cm * cm +
         params_.bend_loss_db * static_cast<double>(bends) +
         2.0 * params_.coupling_loss_db;
}

double Waveguide::transmittance(Length route, std::size_t bends) const {
  return db_to_linear(loss_db(route, bends));
}

double Waveguide::split_transmittance(Length route, std::size_t stages,
                                      std::size_t bends) const {
  const double split_db =
      static_cast<double>(stages) * (3.0103 + params_.splitter_excess_db);
  return db_to_linear(loss_db(route, bends) + split_db);
}

}  // namespace oci::photonics
