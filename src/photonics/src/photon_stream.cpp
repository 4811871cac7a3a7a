#include "oci/photonics/photon_stream.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oci::photonics {

namespace {
// A SPAD receiver resolves at most the first few detected photons of a
// pulse: after the first detection the diode is dead for longer than the
// pulse itself. For bright pulses (e.g. a 200 uW LED delivers ~2e5
// photons per pulse) we therefore generate only the earliest
// kMaxSampledPhotons arrivals -- exactly, via the ascending order
// statistics of the n uniform draws -- instead of all n. With a photon
// detection probability p >= 1e-2 the chance that any photon beyond the
// cap influences the receiver is (1-p)^4096 < 1e-17.
constexpr std::int64_t kMaxSampledPhotons = 4096;

// Validated in the member-initializer list, BEFORE the cached Poisson
// sampler is built from the product. The negated comparison also rejects
// NaN, which would otherwise slip through every downstream range check.
double checked_transmittance(double t) {
  if (!(t >= 0.0 && t <= 1.0)) {
    throw std::invalid_argument("PhotonStream: transmittance must be in [0,1]");
  }
  return t;
}
}  // namespace

PhotonStream::PhotonStream(const MicroLed& led, double channel_transmittance)
    : led_(&led),
      transmittance_(checked_transmittance(channel_transmittance)),
      pulse_count_(led.photons_per_pulse() * transmittance_) {}

std::vector<PhotonArrival> PhotonStream::sample_pulse(Time pulse_start,
                                                      RngStream& rng) const {
  std::vector<PhotonArrival> out;
  const auto n = pulse_count_.sample(rng);
  if (n <= kMaxSampledPhotons) {
    out.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const Time offset = led_->sample_emission_time(rng.uniform());
      out.push_back(PhotonArrival{pulse_start + offset, /*is_signal=*/true});
    }
    std::sort(out.begin(), out.end(),
              [](const PhotonArrival& a, const PhotonArrival& b) { return a.time < b.time; });
    return out;
  }
  // Bright-pulse path: the k earliest of n uniform order statistics,
  // streamed in ascending order; sample_emission_time is a monotone
  // inverse CDF, so the emitted times are exactly the earliest k
  // arrivals of the full pulse, already sorted.
  out.reserve(static_cast<std::size_t>(kMaxSampledPhotons));
  util::AscendingUniformStream order(n);
  for (std::int64_t i = 0; i < kMaxSampledPhotons; ++i) {
    const double u = order.next(rng);
    out.push_back(
        PhotonArrival{pulse_start + led_->sample_emission_time(u), /*is_signal=*/true});
  }
  return out;
}

std::vector<PhotonArrival> PhotonStream::sample_background(Frequency rate, Time window_start,
                                                           Time window, RngStream& rng) {
  std::vector<PhotonArrival> out;
  if (rate.hertz() <= 0.0 || window <= Time::zero()) return out;
  const auto n = rng.poisson(rate.hertz() * window.seconds());
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(PhotonArrival{window_start + rng.uniform_time(window), /*is_signal=*/false});
  }
  std::sort(out.begin(), out.end(),
            [](const PhotonArrival& a, const PhotonArrival& b) { return a.time < b.time; });
  return out;
}

std::vector<PhotonArrival> PhotonStream::merge(std::vector<PhotonArrival> a,
                                               std::vector<PhotonArrival> b) {
  // Steal, don't copy: the common reference-pipeline case (no
  // background, or no interference) is one empty side.
  if (a.empty()) return b;
  if (b.empty()) return a;
  // General case: extend a and merge from the back -- in place in a's
  // buffer, no third vector and no inplace_merge scratch. Placing b's
  // element on ties keeps a-before-b, matching std::merge stability.
  const std::size_t na = a.size();
  a.resize(na + b.size());
  std::size_t ia = na;
  std::size_t ib = b.size();
  std::size_t out = a.size();
  while (ib > 0) {
    if (ia > 0 && b[ib - 1].time < a[ia - 1].time) {
      a[--out] = a[--ia];
    } else {
      a[--out] = b[--ib];
    }
  }
  return a;
}

}  // namespace oci::photonics
