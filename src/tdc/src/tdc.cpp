#include "oci/tdc/tdc.hpp"

#include <cmath>
#include <stdexcept>


namespace oci::tdc {

Tdc::Tdc(DelayLine line, const TdcConfig& config)
    : line_(std::move(line)), config_(config) {
  if (config_.coarse_bits > 24) {
    throw std::invalid_argument("Tdc: coarse_bits out of sane range");
  }
  clock_period_ = config_.clock_period > Time::zero()
                      ? config_.clock_period
                      : line_.params().nominal_delay * static_cast<double>(line_.size());
  if (!line_.covers(clock_period_)) {
    throw std::invalid_argument(
        "Tdc: delay line does not cover one clock period; add elements or slow the clock");
  }
  derive_period_taps();
}

void Tdc::set_conditions(Temperature t) {
  line_.set_conditions(t);
  derive_period_taps();
}

void Tdc::derive_period_taps() {
  taps_per_period_ = line_.elements_used(clock_period_);
  lsb_s_ = clock_period_.seconds() / static_cast<double>(taps_per_period_);
}

Time Tdc::toa_window() const {
  return clock_period_ * static_cast<double>(std::uint64_t{1} << config_.coarse_bits);
}

Time Tdc::measurement_window() const {
  // One extra clock period's worth of fine range for TDC reset, per the
  // paper's MW(N,C) = (2^C + 1) N delta.
  return toa_window() + clock_period_;
}

Time Tdc::lsb() const { return Time::seconds(lsb_s_); }

TdcReading Tdc::finish(Time toa, unsigned coarse, std::size_t fine_taps) const {
  // The fine count can exceed the taps per period when mismatch
  // shortens the head of the chain; clamp so the reconstruction stays
  // in-window.
  fine_taps = std::min(fine_taps, taps_per_period_);

  TdcReading r;
  r.coarse = coarse;
  r.fine = fine_taps;
  const std::uint64_t max_code =
      (std::uint64_t{1} << config_.coarse_bits) * taps_per_period_ - 1;
  // A fine count of k means the hit-to-edge interval lay in
  // [boundary(k), boundary(k+1)), i.e. the TOA lay in the bin whose
  // upper edge is (coarse * taps - k) LSBs -- hence the -1.
  const std::int64_t raw =
      static_cast<std::int64_t>(coarse) * static_cast<std::int64_t>(taps_per_period_) -
      static_cast<std::int64_t>(fine_taps) - 1;
  std::int64_t clamped = raw;
  if (clamped < 0) clamped = 0;
  if (clamped > static_cast<std::int64_t>(max_code)) {
    clamped = static_cast<std::int64_t>(max_code);
  }
  r.code = static_cast<std::uint64_t>(clamped);
  r.estimate = Time::seconds(static_cast<double>(r.code) * lsb_s_ + 0.5 * lsb_s_);
  r.saturated = !(toa >= Time::zero() && toa < toa_window());
  return r;
}

Tdc::Latch Tdc::latch(Time toa) const {
  const double T = clock_period_.seconds();
  double t = toa.seconds();
  if (!(t >= 0.0)) t = 0.0;  // NaN and -inf clamp to the window start too
  const double window = toa_window().seconds();
  if (t >= window) t = std::nexttoward(window, 0.0);
  const auto edge = static_cast<unsigned>(std::ceil(t / T - 1e-15));
  return {edge, Time::seconds(static_cast<double>(edge) * T - t)};
}

TdcReading Tdc::convert_ideal(Time toa) const {
  const Latch l = latch(toa);
  return finish(toa, l.edge, line_.ideal_code(l.interval));
}

TdcReading Tdc::convert(Time toa, RngStream& rng) const {
  // Fused fast path: identical draws and result to sample() + decode,
  // without materialising the thermometer code (conversion hot path).
  const Latch l = latch(toa);
  return finish(toa, l.edge, sample_and_decode(line_, l.interval, rng));
}

TdcReading Tdc::convert(Time toa, util::CounterRng& coins) const {
  const Latch l = latch(toa);
  return finish(toa, l.edge, sample_and_decode(line_, l.interval, coins));
}

}  // namespace oci::tdc
