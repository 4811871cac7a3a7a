#include "oci/util/random.hpp"

namespace oci::util {

std::uint64_t derive_seed(std::uint64_t root, std::string_view label) {
  std::uint64_t state = root ^ 0xA0761D6478BD642Full;
  // Fold the label into the state one byte at a time, mixing after each.
  for (unsigned char c : label) {
    state ^= static_cast<std::uint64_t>(c);
    (void)splitmix64(state);
  }
  return splitmix64(state);
}

double RngStream::uniform() {
  ++draws_;
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double RngStream::uniform(double lo, double hi) {
  ++draws_;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  ++draws_;
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::normal(double mean, double sigma) {
  ++draws_;
  if (sigma == 0.0) {
    // std::normal_distribution requires sigma > 0. The polar method's
    // engine draws do not depend on the parameters, so discarding one
    // standard draw advances the engine exactly as sigma > 0 would.
    (void)std::normal_distribution<double>()(engine_);
    return mean;
  }
  return std::normal_distribution<double>(mean, sigma)(engine_);
}

double RngStream::exponential_mean(double mean) {
  ++draws_;
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

std::int64_t RngStream::poisson(double mean) {
  if (mean <= 0.0) return 0;
  ++draws_;
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

bool RngStream::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  ++draws_;
  return std::bernoulli_distribution(p)(engine_);
}

std::uint64_t RngStream::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  ++draws_;
  return std::binomial_distribution<std::uint64_t>(n, p)(engine_);
}

Time RngStream::uniform_time(Time range) {
  return Time::seconds(uniform(0.0, range.seconds()));
}

Time RngStream::normal_time(Time mean, Time sigma) {
  return Time::seconds(normal(mean.seconds(), sigma.seconds()));
}

Time RngStream::exponential_time(Time mean) {
  return Time::seconds(exponential_mean(mean.seconds()));
}

RngStream RngStream::fork(std::string_view label) {
  return RngStream(engine_(), label);
}

}  // namespace oci::util
