// CMOS technology-node scaling: the paper closes by asserting the
// approach's "suitability in emerging DSM technologies". This module
// makes that claim checkable by parameterising the pieces that scale
// with the node:
//
//   * the TDC's delay element (a gate delay) shrinks -> finer delta ->
//     more bits per sample at the same fine range;
//   * the LED driver's and the pad driver's C V^2 energy shrinks with
//     supply and capacitance;
//   * delay-element mismatch GROWS relatively as devices shrink, which
//     is what the paper's periodic-calibration strategy must absorb.
//
// Node figures follow the usual constant-field-ish scaling trends of
// the 250 nm -> 32 nm era (FO4 ~ 20 ps at 250 nm scaling roughly with
// feature size; supply 2.5 V -> 0.9 V); they are trend anchors, not
// foundry data.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::electrical {

using util::Capacitance;
using util::Time;
using util::Voltage;

struct TechnologyNode {
  std::string_view name;       ///< e.g. "90nm"
  double feature_nm = 90.0;    ///< drawn feature size
  Voltage supply;              ///< nominal core VDD
  Time fo4_delay;              ///< fanout-of-4 inverter delay
  /// Per-element delay of a calibrated tapped line (buffer + routing);
  /// a small multiple of FO4 in practice.
  Time delay_element;
  /// Fractional sigma of one delay element's static mismatch.
  double mismatch_sigma = 0.08;
  /// I/O pad capacitance (pad + ESD) -- shrinks slowly vs core.
  Capacitance pad_capacitance;
  /// Micro-LED driver load at this node.
  Capacitance led_driver_load;
};

/// The built-in node ladder, coarsest first: 250, 180, 130, 90, 65,
/// 45, 32 nm.
[[nodiscard]] const std::vector<TechnologyNode>& technology_ladder();

/// Finds a ladder node by name ("65nm"); throws std::invalid_argument
/// for unknown names.
[[nodiscard]] const TechnologyNode& node_by_name(std::string_view name);

/// Switching energy of a load at the node's supply: C V^2.
[[nodiscard]] util::Energy switching_energy_at(const TechnologyNode& node,
                                               Capacitance load);

}  // namespace oci::electrical
