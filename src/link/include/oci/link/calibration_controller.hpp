// Periodic-recalibration policy. The paper's delay line "is not
// dynamically adjusted for temperature, voltage, or process variations.
// To achieve correctness we rely on regular calibration so as to ensure
// a fixed bound on resolution." This controller models that loop:
// it owns a calibration LUT for a TDC, tracks how far the temperature
// has drifted since the LUT was built, and decides when to recalibrate.
#pragma once

#include <cstdint>

#include "oci/tdc/calibration.hpp"
#include "oci/tdc/tdc.hpp"
#include "oci/util/random.hpp"
#include "oci/util/units.hpp"

namespace oci::link {

using util::Temperature;
using util::Time;

struct CalibrationPolicy {
  /// Recalibrate whenever the junction temperature has drifted this far
  /// from the temperature at which the current LUT was measured.
  double max_temperature_drift_c = 5.0;
  /// Hits used per calibration run.
  std::uint64_t samples = 200000;
};

class CalibrationController {
 public:
  /// Shortest time between two calibrations (back-to-back runs would
  /// keep the link busy for nothing).
  static constexpr Time kMinInterval = Time::milliseconds(1.0);

  CalibrationController(tdc::Tdc& tdc, const CalibrationPolicy& policy);

  [[nodiscard]] const tdc::CalibrationLut& lut() const { return lut_; }
  [[nodiscard]] const CalibrationPolicy& policy() const { return policy_; }
  [[nodiscard]] Temperature calibrated_at() const { return calibrated_at_; }
  [[nodiscard]] std::uint64_t calibrations_run() const { return runs_; }

  /// Runs a calibration now, stamping it with the current line
  /// temperature and the given simulation time.
  void calibrate_now(Time sim_time, util::RngStream& rng);

  /// Called periodically with the current time; recalibrates when the
  /// policy demands it. Returns true if a calibration ran.
  bool maybe_recalibrate(Time sim_time, util::RngStream& rng);

 private:
  tdc::Tdc* tdc_;
  CalibrationPolicy policy_;
  tdc::CalibrationLut lut_;
  Temperature calibrated_at_ = Temperature::celsius(20.0);
  Time last_run_ = Time::seconds(-1e9);
  std::uint64_t runs_ = 0;
};

}  // namespace oci::link
