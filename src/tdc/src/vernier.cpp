#include "oci/tdc/vernier.hpp"

#include <algorithm>
#include <stdexcept>

namespace oci::tdc {

VernierTdc::VernierTdc(const VernierParams& params, RngStream& process_rng)
    : params_(params) {
  if (params_.stages == 0) throw std::invalid_argument("VernierTdc: need >= 1 stage");
  if (params_.slow_delay <= params_.fast_delay) {
    throw std::invalid_argument("VernierTdc: slow delay must exceed fast delay");
  }
  if (params_.mismatch_sigma < 0.0 || params_.mismatch_sigma >= 1.0) {
    throw std::invalid_argument("VernierTdc: mismatch sigma must be in [0,1)");
  }
  residual_s_.reserve(params_.stages + 1);
  residual_s_.push_back(0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < params_.stages; ++i) {
    const double slow = params_.slow_delay.seconds() *
                        std::max(0.2, process_rng.normal(1.0, params_.mismatch_sigma));
    const double fast = params_.fast_delay.seconds() *
                        std::max(0.2, process_rng.normal(1.0, params_.mismatch_sigma));
    // The fast edge gains (slow - fast) on the hit edge per stage; keep
    // the per-stage gain positive so the converter is monotone.
    acc += std::max(1e-15, slow - fast);
    residual_s_.push_back(acc);
  }
}

Time VernierTdc::resolution() const { return params_.slow_delay - params_.fast_delay; }

Time VernierTdc::range() const {
  return Time::seconds(residual_s_.back());
}

Time VernierTdc::conversion_time() const {
  return params_.slow_delay * static_cast<double>(params_.stages);
}

std::size_t VernierTdc::convert(Time interval) const {
  const double t = interval.seconds();
  if (t <= 0.0) return 0;
  // Catch-up at stage k when cumulative residual >= interval.
  const auto it = std::lower_bound(residual_s_.begin(), residual_s_.end(), t);
  return std::min(static_cast<std::size_t>(std::distance(residual_s_.begin(), it)),
                  params_.stages);
}

}  // namespace oci::tdc
