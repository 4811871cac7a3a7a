#include "oci/link/error_model.hpp"

#include <cmath>
#include <stdexcept>

namespace oci::link {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

Time rss_sigma(Time a, Time b, Time c) {
  const double s = a.seconds() * a.seconds() + b.seconds() * b.seconds() +
                   c.seconds() * c.seconds();
  return Time::seconds(std::sqrt(s));
}

ErrorBudget compute_error_budget(const ErrorBudgetInputs& in) {
  if (in.slot_width <= Time::zero() || in.toa_window <= Time::zero()) {
    throw std::invalid_argument("error budget: windows must be positive");
  }
  if (in.bits_per_symbol == 0) {
    throw std::invalid_argument("error budget: bits_per_symbol must be >= 1");
  }
  ErrorBudget out;

  out.p_miss = 1.0 - in.pulse_detection_probability;

  // Noise capture: the SPAD reports the FIRST avalanche in the window.
  // For a uniformly distributed symbol the pulse sits half-way through
  // the window on average, so noise must beat it over window/2.
  const double mean_head = in.noise_rate.hertz() * in.toa_window.seconds() / 2.0;
  const double p_noise_first = 1.0 - std::exp(-mean_head);
  // A previous symbol's afterpulse releasing inside this window's head
  // adds (bounded by) half the afterpulse probability.
  const double p_ap = in.afterpulse_probability * 0.5;
  out.p_capture = 1.0 - (1.0 - p_noise_first) * (1.0 - p_ap);

  // Jitter spill: pulse centred in its slot, Gaussian TOA noise; an
  // error needs |noise| > slot/2.
  const double half_slot = in.slot_width.seconds() / 2.0;
  const double sigma = in.timing_sigma.seconds();
  out.p_jitter = sigma > 0.0 ? 2.0 * q_function(half_slot / sigma) : 0.0;

  out.symbol_error_rate =
      1.0 - (1.0 - out.p_miss) * (1.0 - out.p_capture) * (1.0 - out.p_jitter);

  // Bit error mapping. Misses and captures land in an (effectively)
  // random slot: half the bits are wrong. Jitter lands in an adjacent
  // slot, whose Gray label differs in exactly 1 of K bits.
  const double k = static_cast<double>(in.bits_per_symbol);
  out.bit_error_rate = (out.p_miss + out.p_capture) * 0.5 + out.p_jitter * (1.0 / k);
  if (out.bit_error_rate > 1.0) out.bit_error_rate = 1.0;
  return out;
}

}  // namespace oci::link
