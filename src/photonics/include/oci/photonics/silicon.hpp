// Optical properties of crystalline silicon: absorption coefficient
// versus wavelength (room-temperature tabulation after Green's
// compilation) and Beer-Lambert transmittance through thinned dies.
//
// The paper's vertical optical bus transmits light through stacks of
// thinned silicon dies; the feasibility of deep stacks rests entirely on
// the absorption at the source wavelength and the die thickness, which
// this module quantifies.
#pragma once

#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Length;
using util::Wavelength;

/// Absorption coefficient of intrinsic crystalline silicon at 300 K
/// [1/m], log-linearly interpolated over a 350-1100 nm tabulation.
/// Outside the table the nearest endpoint is clamped (silicon is
/// essentially opaque below 350 nm and transparent past the band gap).
[[nodiscard]] double absorption_coefficient_si(Wavelength lambda);

/// Beer-Lambert transmittance of a silicon slab of the given thickness
/// (absorption only; interface reflections are handled separately as
/// coupling losses).
[[nodiscard]] double transmittance_si(Wavelength lambda, Length thickness);

/// Real refractive index of silicon (visible/NIR polynomial fit).
[[nodiscard]] double refractive_index_si(Wavelength lambda);

}  // namespace oci::photonics
