#include "oci/spad/pdp.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace oci::spad {

namespace {

struct PdpPoint {
  double lambda_nm;
  double relative;
};

// Normalised PDP spectrum of a shallow-junction CMOS SPAD: rises through
// the near-UV, peaks around 480 nm, decays into the NIR as absorption
// moves below the multiplication region.
constexpr std::array<PdpPoint, 15> kPdpShape{{
    {350.0, 0.05},
    {400.0, 0.55},
    {450.0, 0.90},
    {480.0, 1.00},
    {500.0, 0.98},
    {550.0, 0.85},
    {600.0, 0.65},
    {650.0, 0.45},
    {700.0, 0.30},
    {750.0, 0.18},
    {800.0, 0.10},
    {850.0, 0.06},
    {900.0, 0.03},
    {950.0, 0.012},
    {1000.0, 0.005},
}};

}  // namespace

double pdp_spectral_shape(Wavelength lambda) {
  const double nm = lambda.nanometres();
  if (nm <= kPdpShape.front().lambda_nm) return kPdpShape.front().relative;
  if (nm >= kPdpShape.back().lambda_nm) return kPdpShape.back().relative;
  const auto hi = std::lower_bound(kPdpShape.begin(), kPdpShape.end(), nm,
                                   [](const PdpPoint& p, double x) { return p.lambda_nm < x; });
  const auto lo = hi - 1;
  const double t = (nm - lo->lambda_nm) / (hi->lambda_nm - lo->lambda_nm);
  return lo->relative * (1.0 - t) + hi->relative * t;
}

double pdp(const SpadParams& params, Wavelength lambda) {
  return std::clamp(params.pdp_peak * pdp_spectral_shape(lambda), 0.0, 1.0);
}

Frequency dark_count_rate(const SpadParams& params, Temperature t) {
  const double dk = t.kelvin() - params.dcr_ref_temperature.kelvin();
  return Frequency::hertz(params.dcr_at_ref.hertz() *
                          std::exp2(dk / params.dcr_doubling_kelvin));
}

}  // namespace oci::spad
