// Capacitive proximity link after Drost et al., JSSC 2004 (the paper's
// ref [3]): face-to-face chips couple through plate capacitors. Very low
// energy and dense, but requires the two chips' surfaces to be microns
// apart and facing each other -- strictly a two-chip arrangement.
#pragma once

#include "oci/electrical/interconnect.hpp"
#include "oci/util/units.hpp"

namespace oci::electrical {

using util::Capacitance;
using util::Length;
using util::Voltage;

struct CapacitiveLinkParams {
  Length plate_side = Length::micrometres(20.0);  ///< square coupling plate
  Length gap = Length::micrometres(1.0);          ///< face-to-face air/underfill gap
  double relative_permittivity = 1.0;             ///< 1 = air gap
  Voltage swing = Voltage::volts(1.0);
  BitRate per_channel_rate = BitRate::gigabits_per_second(1.35);  ///< after Drost '04
  Capacitance min_usable_coupling = Capacitance::femtofarads(1.0);
  Energy rx_energy_per_bit = Energy::femtojoules(150.0);
};

class CapacitiveLink {
 public:
  explicit CapacitiveLink(const CapacitiveLinkParams& p);

  [[nodiscard]] const CapacitiveLinkParams& params() const { return params_; }

  /// Parallel-plate coupling capacitance at the configured gap.
  [[nodiscard]] Capacitance coupling_capacitance() const;
  [[nodiscard]] Capacitance coupling_at(Length gap) const;
  [[nodiscard]] bool link_feasible() const;
  /// TX energy: the driver swings the coupling plate (plus parasitics
  /// assumed equal to the plate capacitance).
  [[nodiscard]] Energy energy_per_bit() const;

  [[nodiscard]] LinkFigures figures() const;

 private:
  CapacitiveLinkParams params_;
};

}  // namespace oci::electrical
