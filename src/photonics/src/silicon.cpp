#include "oci/photonics/silicon.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace oci::photonics {

namespace {

struct AlphaPoint {
  double lambda_nm;
  double alpha_per_cm;
};

// Room-temperature absorption coefficient of c-Si (after M. A. Green's
// standard compilation), sampled every 50 nm. Interpolation is linear in
// log(alpha) vs lambda, which matches the near-exponential band edge.
constexpr std::array<AlphaPoint, 16> kAlphaTable{{
    {350.0, 1.06e6},
    {400.0, 9.52e4},
    {450.0, 2.55e4},
    {500.0, 1.11e4},
    {550.0, 6.43e3},
    {600.0, 4.14e3},
    {650.0, 2.81e3},
    {700.0, 1.90e3},
    {750.0, 1.30e3},
    {800.0, 8.50e2},
    {850.0, 5.35e2},
    {900.0, 3.06e2},
    {950.0, 1.57e2},
    {1000.0, 6.40e1},
    {1050.0, 1.70e1},
    {1100.0, 3.50e0},
}};

}  // namespace

double absorption_coefficient_si(Wavelength lambda) {
  const double nm = lambda.nanometres();
  if (nm <= kAlphaTable.front().lambda_nm) {
    return kAlphaTable.front().alpha_per_cm * 100.0;  // 1/cm -> 1/m
  }
  if (nm >= kAlphaTable.back().lambda_nm) {
    return kAlphaTable.back().alpha_per_cm * 100.0;
  }
  const auto hi = std::lower_bound(
      kAlphaTable.begin(), kAlphaTable.end(), nm,
      [](const AlphaPoint& p, double x) { return p.lambda_nm < x; });
  const auto lo = hi - 1;
  const double t = (nm - lo->lambda_nm) / (hi->lambda_nm - lo->lambda_nm);
  const double log_alpha =
      std::log(lo->alpha_per_cm) * (1.0 - t) + std::log(hi->alpha_per_cm) * t;
  return std::exp(log_alpha) * 100.0;  // 1/cm -> 1/m
}

double transmittance_si(Wavelength lambda, Length thickness) {
  const double alpha = absorption_coefficient_si(lambda);
  return std::exp(-alpha * thickness.metres());
}

double refractive_index_si(Wavelength lambda) {
  // Simple Cauchy-style fit adequate for 400-1100 nm: n ~ 3.42 + dispersion.
  const double um = lambda.micrometres();
  const double um2 = um * um;
  return 3.42 + 0.159 / um2 + 0.0245 / (um2 * um2);
}

}  // namespace oci::photonics
