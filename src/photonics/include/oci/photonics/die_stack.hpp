// Geometry and optical budget of a stack of thinned dies with vertical
// optical channels (the paper's Figure 1, right): light from a micro-LED
// on one die traverses the silicon of intermediate dies and the
// inter-die interfaces to reach SPAD receivers on other dies.
#pragma once

#include <cstddef>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Length;
using util::Wavelength;

struct DieSpec {
  Length thickness = Length::micrometres(50.0);  ///< thinned die thickness
  /// Power coupling efficiency across this die's top interface
  /// (micro-optics + alignment + Fresnel residual after AR treatment).
  double interface_coupling = 0.85;
};

/// A vertical stack of dies, index 0 at the bottom. Each die can host
/// transmitters and receivers; the stack computes the end-to-end power
/// transmittance between any two dies at a given wavelength.
class DieStack {
 public:
  explicit DieStack(std::vector<DieSpec> dies);

  /// Uniform-stack convenience factory.
  [[nodiscard]] static DieStack uniform(std::size_t count, const DieSpec& spec);

  [[nodiscard]] std::size_t size() const { return dies_.size(); }
  [[nodiscard]] const DieSpec& die(std::size_t i) const { return dies_.at(i); }

  /// Fraction of optical power launched on `from` that reaches the
  /// detector plane on `to` at wavelength lambda. Traversal absorbs in
  /// every die strictly between the two (the source/detector dies
  /// themselves contribute interface losses but not bulk absorption:
  /// devices sit at the surfaces facing the channel). from == to yields 1.
  [[nodiscard]] double transmittance(std::size_t from, std::size_t to,
                                     Wavelength lambda) const;

  /// Total silicon path length between two dies (exclusive of endpoints).
  [[nodiscard]] Length silicon_path(std::size_t from, std::size_t to) const;

  /// Largest stack depth (hop count) for which transmittance from die 0
  /// still exceeds `min_transmittance`. Useful for "how many dies can one
  /// bus service" analyses.
  [[nodiscard]] std::size_t max_reach(Wavelength lambda, double min_transmittance) const;

 private:
  std::vector<DieSpec> dies_;
};

/// Crosstalk between horizontally adjacent optical channels on the same
/// die: a fraction of a neighbour's pulse energy leaks into this
/// channel's detector, modelled as a geometric decay with channel pitch.
struct CrosstalkModel {
  Length pitch = Length::micrometres(100.0);     ///< centre-to-centre channel pitch
  Length decay_length = Length::micrometres(25.0);  ///< lateral leakage decay scale
  double fraction_at(Length distance) const;     ///< leakage at arbitrary distance
};

}  // namespace oci::photonics
