// Intra-chip (horizontal) optical channels: integrated waveguides and
// splitter trees. The paper's title covers INTRA-chip communication and
// its Figure 1 shows horizontal optical buses; this module supplies the
// loss budget for on-die routing (propagation loss per cm, bend loss,
// splitter trees for optical clock/broadcast distribution).
#pragma once

#include <cstddef>

#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Length;

struct WaveguideParams {
  /// Propagation loss in dB/cm (polymer or nitride guides of the era:
  /// 0.1 - 3 dB/cm).
  double propagation_loss_db_per_cm = 1.0;
  /// Loss per 90-degree bend [dB].
  double bend_loss_db = 0.1;
  /// Insertion loss of coupling into/out of the guide [dB].
  double coupling_loss_db = 1.5;
  /// Excess loss per 1x2 splitter stage [dB] (on top of the 3 dB split).
  double splitter_excess_db = 0.3;
};

class Waveguide {
 public:
  explicit Waveguide(const WaveguideParams& params);

  [[nodiscard]] const WaveguideParams& params() const { return params_; }

  /// End-to-end power transmittance of a point-to-point route with the
  /// given length and number of 90-degree bends (includes both coupling
  /// interfaces).
  [[nodiscard]] double transmittance(Length route, std::size_t bends = 0) const;

  /// Total loss of the same route in dB.
  [[nodiscard]] double loss_db(Length route, std::size_t bends = 0) const;

  /// Power fraction reaching EACH of the 2^stages leaves of a balanced
  /// splitter tree whose total routed length to a leaf is `route`.
  [[nodiscard]] double split_transmittance(Length route, std::size_t stages,
                                           std::size_t bends = 0) const;

 private:
  WaveguideParams params_;
};

/// Loss in dB -> power fraction, shared by optics code.
[[nodiscard]] double db_to_linear(double db);

}  // namespace oci::photonics
