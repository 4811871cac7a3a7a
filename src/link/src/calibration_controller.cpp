#include "oci/link/calibration_controller.hpp"

#include <cmath>

namespace oci::link {

CalibrationController::CalibrationController(tdc::Tdc& tdc, const CalibrationPolicy& policy)
    : tdc_(&tdc), policy_(policy) {}

void CalibrationController::calibrate_now(Time sim_time, util::RngStream& rng) {
  const tdc::NonlinearityReport rep = tdc::code_density_test(*tdc_, policy_.samples, rng);
  lut_ = tdc::CalibrationLut(rep);
  calibrated_at_ = tdc_->line().temperature();
  last_run_ = sim_time;
  ++runs_;
}

bool CalibrationController::maybe_recalibrate(Time sim_time, util::RngStream& rng) {
  if (!lut_.valid()) {
    calibrate_now(sim_time, rng);
    return true;
  }
  if (sim_time - last_run_ < kMinInterval) return false;
  const double drift =
      std::abs(tdc_->line().temperature().celsius() - calibrated_at_.celsius());
  if (drift < policy_.max_temperature_drift_c) return false;
  calibrate_now(sim_time, rng);
  return true;
}

}  // namespace oci::link
