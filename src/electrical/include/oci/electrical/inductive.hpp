// Inductive-coupling inter-chip link after Miura et al., JSSC 2005 (the
// paper's ref [2]): on-chip coil pairs communicate across stacked dies.
// Effective for a chip pair, but coupling decays steeply with distance
// and each channel is point-to-point, which is exactly the limitation
// the paper cites ("only appropriate for pairs of chips").
#pragma once

#include "oci/electrical/interconnect.hpp"
#include "oci/util/units.hpp"

namespace oci::electrical {

using util::Length;

struct InductiveLinkParams {
  Length coil_diameter = Length::micrometres(100.0);
  Length separation = Length::micrometres(60.0);  ///< vertical die separation
  Energy tx_energy_per_bit = Energy::picojoules(1.5);  ///< after Miura '05
  Energy rx_energy_per_bit = Energy::picojoules(1.5);
  BitRate per_channel_rate = BitRate::gigabits_per_second(1.25);
  /// Coupling coefficient at separation == coil diameter; decays as
  /// (d/x)^3 (magnetic dipole near field).
  double k_at_diameter = 0.15;
  double min_usable_coupling = 0.02;  ///< below this the RX cannot resolve
};

class InductiveLink {
 public:
  explicit InductiveLink(const InductiveLinkParams& p);

  [[nodiscard]] const InductiveLinkParams& params() const { return params_; }

  /// Near-field coupling coefficient at the configured separation.
  [[nodiscard]] double coupling() const;
  /// Coupling at an arbitrary separation.
  [[nodiscard]] double coupling_at(Length separation) const;
  /// Whether the configured geometry yields a usable channel.
  [[nodiscard]] bool link_feasible() const;

  [[nodiscard]] LinkFigures figures() const;

 private:
  InductiveLinkParams params_;
};

}  // namespace oci::electrical
