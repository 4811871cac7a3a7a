#include "oci/spad/array.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace oci::spad {

SpadArray::SpadArray(const SpadArrayParams& params, Wavelength operating_wavelength,
                     Temperature temperature)
    : params_(params) {
  if (params_.diodes == 0) throw std::invalid_argument("SpadArray: need >= 1 diode");
  if (params_.fill_factor <= 0.0 || params_.fill_factor > 1.0) {
    throw std::invalid_argument("SpadArray: fill factor must be in (0,1]");
  }
  diodes_.reserve(params_.diodes);
  for (std::size_t i = 0; i < params_.diodes; ++i) {
    diodes_.emplace_back(params_.element, operating_wavelength, temperature);
  }
}

double SpadArray::pdp() const { return diodes_.front().pdp() * params_.fill_factor; }

namespace {

constexpr std::ptrdiff_t kAnyDiode = -1;

struct Candidate {
  Time time;
  DetectionCause cause;
  std::ptrdiff_t diode;  ///< kAnyDiode: channel photon, routed when it fires
};

struct LaterCandidate {
  bool operator()(const Candidate& a, const Candidate& b) const { return a.time > b.time; }
};

}  // namespace

std::vector<Detection> SpadArray::detect(std::span<const photonics::PhotonArrival> photons,
                                         Time window_start, Time window,
                                         util::RngStream& rng,
                                         std::vector<Time>& dead_until) const {
  if (dead_until.size() != diodes_.size()) {
    throw std::invalid_argument("SpadArray: dead_until must have one entry per diode");
  }
  const Time window_end = window_start + window;
  const SpadParams& el = params_.element;

  std::vector<Candidate> heap;
  const LaterCandidate later{};
  const auto push = [&](Time time, DetectionCause cause, std::ptrdiff_t diode) {
    heap.push_back(Candidate{time, cause, diode});
    std::push_heap(heap.begin(), heap.end(), later);
  };

  // Channel photons: thinned by fill factor x PDP up front (Geiger-mode
  // trigger model). Routing to a diode is deferred to firing time so we
  // can pick among the diodes that are armed at that instant.
  const double accept = pdp();
  for (const auto& ph : photons) {
    if (ph.time < window_start || ph.time >= window_end) continue;
    if (!rng.bernoulli(accept)) continue;
    push(ph.time, ph.is_signal ? DetectionCause::kSignal : DetectionCause::kBackground,
         kAnyDiode);
  }

  // Dark counts originate inside a specific junction.
  const Frequency dcr = diodes_.front().dcr();
  if (dcr.hertz() > 0.0) {
    for (std::size_t d = 0; d < diodes_.size(); ++d) {
      const auto n_dark = rng.poisson(dcr.hertz() * window.seconds());
      for (std::int64_t i = 0; i < n_dark; ++i) {
        push(window_start + rng.uniform_time(window), DetectionCause::kDark,
             static_cast<std::ptrdiff_t>(d));
      }
    }
  }

  std::vector<std::size_t> armed;
  armed.reserve(diodes_.size());
  std::vector<Detection> merged;

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Candidate c = heap.back();
    heap.pop_back();

    std::size_t d;
    if (c.diode == kAnyDiode) {
      armed.clear();
      for (std::size_t i = 0; i < diodes_.size(); ++i) {
        if (dead_until[i] <= c.time) armed.push_back(i);
      }
      if (armed.empty()) continue;  // every cell is recovering: the photon is lost
      d = armed[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(armed.size()) - 1))];
    } else {
      d = static_cast<std::size_t>(c.diode);
      if (c.time < dead_until[d]) continue;
    }

    Detection det;
    det.true_time = c.time;
    det.time = c.time + rng.normal_time(Time::zero(), el.jitter_sigma);
    det.cause = c.cause;
    merged.push_back(det);
    dead_until[d] = c.time + el.dead_time;

    if (el.afterpulse_probability > 0.0 && rng.bernoulli(el.afterpulse_probability)) {
      const Time release = dead_until[d] + rng.exponential_time(el.afterpulse_tau);
      if (release < window_end) {
        push(release, DetectionCause::kAfterpulse, static_cast<std::ptrdiff_t>(d));
      }
    }
  }

  std::sort(merged.begin(), merged.end(),
            [](const Detection& a, const Detection& b) { return a.time < b.time; });
  return merged;
}

Time SpadArray::effective_dead_time() const {
  return Time::seconds(params_.element.dead_time.seconds() /
                       static_cast<double>(params_.diodes));
}

}  // namespace oci::spad
