// Photon detection probability (PDP) of a CMOS SPAD versus wavelength.
// The spectral shape is a normalised tabulation typical of
// shallow-junction CMOS SPADs (peak near 480 nm, long red tail); the
// absolute scale is SpadParams::pdp_peak, the PDP at the diode's one
// excess bias.
#pragma once

#include "oci/spad/params.hpp"

namespace oci::spad {

/// Normalised spectral response in [0,1]; 1.0 at the curve peak.
[[nodiscard]] double pdp_spectral_shape(Wavelength lambda);

/// Absolute PDP for the given device parameters and wavelength.
[[nodiscard]] double pdp(const SpadParams& params, Wavelength lambda);

/// Dark-count rate at the given junction temperature (doubling law).
[[nodiscard]] Frequency dark_count_rate(const SpadParams& params, Temperature t);

}  // namespace oci::spad
