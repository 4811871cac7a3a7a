// Conventional I/O pad + wire bond model. Captures the two effects the
// paper's introduction names: (a) bonding inductance limits achievable
// bit rate unless prohibitively high currents are driven, and (b) the
// driver burns C V^2 per transition on a large pad capacitance.
#pragma once

#include "oci/electrical/interconnect.hpp"
#include "oci/util/units.hpp"

namespace oci::electrical {

using util::Capacitance;
using util::Current;
using util::Inductance;
using util::Time;
using util::Voltage;

struct WireBondPadParams {
  Capacitance pad_capacitance = Capacitance::picofarads(2.0);  ///< pad + ESD + package
  Inductance bond_inductance = Inductance::nanohenries(3.0);   ///< typical 1-4 nH bond wire
  Voltage swing = Voltage::volts(1.2);                         ///< signalling swing
  Current max_drive = Current::milliamperes(20.0);             ///< driver current budget
  double activity_factor = 0.5;  ///< fraction of bit slots with a transition
  util::Area pad_area = util::Area::square_micrometres(70.0 * 70.0);
};

class WireBondPad {
 public:
  explicit WireBondPad(const WireBondPadParams& p);

  [[nodiscard]] const WireBondPadParams& params() const { return params_; }

  /// Energy per transmitted bit: activity x C V^2.
  [[nodiscard]] Energy energy_per_bit() const;

  /// Rise time dictated by L di/dt at the current budget: the swing must
  /// be developed across the bond inductance, t_r >= L I / V ... plus the
  /// RC-style charge time C V / I. The slower of the LC quarter-period
  /// and the charge time governs.
  [[nodiscard]] Time min_transition_time() const;

  /// Achievable NRZ bit rate (two transition times per bit minimum).
  [[nodiscard]] BitRate max_bit_rate() const;

  [[nodiscard]] LinkFigures figures() const;

 private:
  WireBondPadParams params_;
};

}  // namespace oci::electrical
