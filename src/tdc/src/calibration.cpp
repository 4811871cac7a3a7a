#include "oci/tdc/calibration.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

namespace oci::tdc {

NonlinearityReport nonlinearity_from_widths(const std::vector<double>& widths_s) {
  NonlinearityReport rep;
  rep.codes = widths_s.size();
  if (widths_s.empty()) return rep;
  rep.bin_width_s = widths_s;
  // The LSB is estimated from the INTERIOR bins only: in a code-density
  // test the first and last bins are truncated by the window edges, and
  // including them biases the LSB low, which shows up as a spurious
  // linear INL drift.
  const std::size_t n = widths_s.size();
  const std::size_t lo = n >= 4 ? 1 : 0;
  const std::size_t hi = n >= 4 ? n - 1 : n;
  rep.lsb_s = std::accumulate(widths_s.begin() + static_cast<std::ptrdiff_t>(lo),
                              widths_s.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
              static_cast<double>(hi - lo);
  if (rep.lsb_s <= 0.0) throw std::invalid_argument("nonlinearity: non-positive LSB");
  rep.dnl_lsb.resize(n);
  rep.inl_lsb.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    rep.dnl_lsb[k] = widths_s[k] / rep.lsb_s - 1.0;
    rep.inl_lsb[k] = acc;  // INL of code k's left boundary
    acc += rep.dnl_lsb[k];
    if (k >= lo && k < hi) {
      rep.max_abs_dnl = std::max(rep.max_abs_dnl, std::abs(rep.dnl_lsb[k]));
      rep.max_abs_inl = std::max(rep.max_abs_inl, std::abs(rep.inl_lsb[k]));
    }
  }
  return rep;
}

namespace {

/// Most racing taps code_probabilities enumerates per segment (2^8
/// patterns). Every technology-ladder node races at most one tap at the
/// default 4 ps window; only windows spanning several taps exceed it.
constexpr std::size_t kMaxRacingTaps = 8;

}  // namespace

std::optional<std::vector<double>> code_probabilities(const Tdc& tdc) {
  const DelayLine& line = tdc.line();
  const double period = tdc.clock_period().seconds();
  const std::size_t used = line.elements_used(tdc.clock_period());
  const Time meta = line.params().metastability_window;

  // Between consecutive cut points (each switching instant ± the
  // window) the latch regimes are constant.
  const std::span<const double> b = line.boundaries_seconds();
  std::vector<double> cuts = {0.0, period};
  for (std::size_t i = 1; i < b.size(); ++i) {
    for (const double cut : {b[i] - meta.seconds(), b[i] + meta.seconds()}) {
      if (cut > 0.0 && cut < period) cuts.push_back(cut);
    }
  }
  std::sort(cuts.begin(), cuts.end());

  std::vector<double> pi(used, 0.0);
  std::array<std::uint8_t, kMaxRacingTaps> bits{};
  for (std::size_t j = 0; j + 1 < cuts.size(); ++j) {
    const double width = cuts[j + 1] - cuts[j];
    if (width <= 0.0) continue;
    const LatchRegimes r = latch_regimes(line, Time::seconds(cuts[j] + width / 2.0), meta);
    if (r.racing > kMaxRacingTaps) return std::nullopt;
    const std::size_t patterns = std::size_t{1} << r.racing;
    const double mass = width / period / static_cast<double>(patterns);
    for (std::size_t pattern = 0; pattern < patterns; ++pattern) {
      for (std::size_t i = 0; i < r.racing; ++i) bits[i] = (pattern >> i) & 1U;
      const std::size_t code = decode_latched(line.size(), r.ones, {bits.data(), r.racing});
      pi[std::min(code, used - 1)] += mass;
    }
  }
  return pi;
}

NonlinearityReport code_density_test(const Tdc& tdc, std::uint64_t samples,
                                     util::RngStream& rng) {
  if (samples == 0) throw std::invalid_argument("code_density_test: samples must be > 0");
  const Time period = tdc.clock_period();
  const std::size_t used = tdc.line().elements_used(period);

  std::vector<std::uint64_t> counts(used, 0);
  if (const auto pi = code_probabilities(tdc)) {
    // Multinomial(samples, π) as sequential binomials: code k takes its
    // share of the hits left over, with probability π_k over the mass of
    // codes k and above (summed from the top so the last code with mass
    // sees exactly 1 and takes the rest without a draw).
    std::vector<double> mass_from(used + 1, 0.0);
    for (std::size_t k = used; k-- > 0;) mass_from[k] = mass_from[k + 1] + (*pi)[k];
    std::uint64_t left = samples;
    for (std::size_t k = 0; k < used && left > 0; ++k) {
      counts[k] = rng.binomial(left, (*pi)[k] / mass_from[k]);
      left -= counts[k];
    }
  } else {
    for (std::uint64_t i = 0; i < samples; ++i) {
      const Time interval = rng.uniform_time(period);
      const std::size_t code = sample_and_decode(tdc.line(), interval, rng);
      ++counts[std::min(code, used - 1)];
    }
  }

  std::vector<double> widths(used, 0.0);
  for (std::size_t k = 0; k < used; ++k) {
    widths[k] = period.seconds() * static_cast<double>(counts[k]) /
                static_cast<double>(samples);
  }
  NonlinearityReport rep = nonlinearity_from_widths(widths);
  rep.samples = samples;
  return rep;
}

CalibrationLut::CalibrationLut(const NonlinearityReport& report) {
  centre_s_.reserve(report.bin_width_s.size());
  double boundary = 0.0;
  for (double w : report.bin_width_s) {
    centre_s_.push_back(boundary + w / 2.0);
    boundary += w;
  }
}

double residual_rms_s(const Tdc& tdc, const CalibrationLut& lut, std::uint64_t probes,
                      util::RngStream& rng) {
  if (probes == 0) return 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t i = 0; i < probes; ++i) {
    const util::Time toa = rng.uniform_time(tdc.toa_window());
    const TdcReading reading = tdc.convert(toa, rng);
    const double err = (lut.correct(reading, tdc.clock_period()) - toa).seconds();
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(probes));
}

}  // namespace oci::tdc
