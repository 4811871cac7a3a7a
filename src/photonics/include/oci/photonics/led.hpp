// Micro-LED optical source model: a GaN micro-stripe LED driven by a
// CMOS driver, after Zhang et al. (the paper's ref [7]), which
// demonstrated individually addressable stripes and sub-nanosecond
// optical pulses with drivers a fraction of a pad's area.
#pragma once

#include <stdexcept>

#include "oci/util/units.hpp"

namespace oci::photonics {

using util::Area;
using util::Capacitance;
using util::Energy;
using util::Power;
using util::Time;
using util::Voltage;
using util::Wavelength;

/// The emitted optical pulse is rectangular: constant peak power over
/// the pulse width.
struct MicroLedParams {
  Wavelength wavelength = Wavelength::nanometres(450.0);  ///< GaN blue emission
  Time pulse_width = Time::picoseconds(300.0);            ///< sub-ns demonstrated in [7]
  Power peak_power = Power::microwatts(50.0);  ///< optical peak power into the channel
  double wall_plug_efficiency = 0.05;          ///< optical out / electrical in
  Capacitance driver_load = Capacitance::femtofarads(250.0);  ///< driver + stripe load
  Voltage supply = Voltage::volts(3.3);
  Area footprint = Area::square_micrometres(30.0 * 30.0);  ///< stripe + driver
};

/// Deterministic source-side model: energies and mean photon numbers.
/// The stochastic photon arrival process lives in photon_stream.hpp.
class MicroLed {
 public:
  explicit MicroLed(const MicroLedParams& params);

  [[nodiscard]] const MicroLedParams& params() const { return params_; }

  /// Optical energy in one pulse: peak power x width.
  [[nodiscard]] Energy optical_pulse_energy() const;
  /// Electrical energy drawn per pulse: optical/WPE + CV^2 driver switching.
  [[nodiscard]] Energy electrical_pulse_energy() const;
  /// Mean number of photons emitted per pulse.
  [[nodiscard]] double photons_per_pulse() const;

  /// Inverse-CDF sample of an emission time within the pulse, given a
  /// uniform u in [0,1): u x width. Used by PhotonStream; the link's
  /// window kernel (link/src/kernels.cpp) samples the same distribution.
  [[nodiscard]] Time sample_emission_time(double u) const;

 private:
  MicroLedParams params_;
};

}  // namespace oci::photonics
