#include "oci/spad/spad.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "oci/spad/pdp.hpp"

namespace oci::spad {

Spad::Spad(const SpadParams& params, Wavelength operating_wavelength, Temperature temperature)
    : params_(params), wavelength_(operating_wavelength), temperature_(temperature) {
  if (params_.dead_time <= Time::zero()) {
    throw std::invalid_argument("Spad: dead time must be positive");
  }
  if (params_.afterpulse_probability < 0.0 || params_.afterpulse_probability >= 1.0) {
    throw std::invalid_argument("Spad: afterpulse probability must be in [0,1)");
  }
  pdp_ = spad::pdp(params_, wavelength_);
  dcr_ = dark_count_rate(params_, temperature_);
}

void Spad::set_temperature(Temperature t) {
  temperature_ = t;
  dcr_ = dark_count_rate(params_, temperature_);
}

double Spad::pulse_detection_probability(double mean_photons) const {
  return 1.0 - std::exp(-mean_photons * pdp_);
}

double Spad::required_mean_photons(double detection_probability) const {
  if (detection_probability <= 0.0) return 0.0;
  if (detection_probability >= 1.0) {
    throw std::invalid_argument("Spad: detection probability must be < 1");
  }
  if (pdp_ <= 0.0) throw std::logic_error("Spad: PDP is zero at this wavelength/bias");
  return -std::log(1.0 - detection_probability) / pdp_;
}

namespace {

// Candidates live in the heap as Detections with only true_time/cause
// filled in; jitter is applied when one fires.
struct LaterCandidate {
  bool operator()(const Detection& a, const Detection& b) const {
    return a.true_time > b.true_time;
  }
};

}  // namespace

std::vector<Detection> Spad::detect(std::span<const PhotonArrival> photons, Time window_start,
                                    Time window, RngStream& rng,
                                    Time initially_dead_until) const {
  const Time window_end = window_start + window;

  // Min-heap of all candidate avalanche triggers: thinned photons, dark
  // counts, and dynamically spawned afterpulses.
  std::vector<Detection> heap;
  const LaterCandidate later{};
  const auto push = [&](Time time, DetectionCause cause) {
    heap.push_back(Detection{Time::zero(), time, cause});
    std::push_heap(heap.begin(), heap.end(), later);
  };

  // PDP thinning of the incident photons: each photon independently
  // triggers with probability PDP (Geiger-mode trigger model).
  for (const auto& ph : photons) {
    if (ph.time < window_start || ph.time >= window_end) continue;
    if (rng.bernoulli(pdp_)) {
      push(ph.time, ph.is_signal ? DetectionCause::kSignal : DetectionCause::kBackground);
    }
  }

  // Dark counts: homogeneous Poisson process across the window.
  if (dcr_.hertz() > 0.0) {
    const auto n_dark = rng.poisson(dcr_.hertz() * window.seconds());
    for (std::int64_t i = 0; i < n_dark; ++i) {
      push(window_start + rng.uniform_time(window), DetectionCause::kDark);
    }
  }

  std::vector<Detection> detections;
  Time dead_until = initially_dead_until;

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Detection c = heap.back();
    heap.pop_back();
    if (c.true_time < dead_until) continue;  // blind: the photon is lost
    // Avalanche fires.
    Detection det;
    det.true_time = c.true_time;
    det.time = c.true_time + rng.normal_time(Time::zero(), params_.jitter_sigma);
    det.cause = c.cause;
    detections.push_back(det);
    dead_until = c.true_time + params_.dead_time;

    // Trap release: with probability p_ap an afterpulse candidate fires
    // after the dead time with an exponential release delay. It may
    // itself cascade (its own afterpulse) when it triggers later.
    if (params_.afterpulse_probability > 0.0 && rng.bernoulli(params_.afterpulse_probability)) {
      const Time release = dead_until + rng.exponential_time(params_.afterpulse_tau);
      if (release < window_end) {
        push(release, DetectionCause::kAfterpulse);
      }
    }
  }

  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) { return a.time < b.time; });
  return detections;
}

}  // namespace oci::spad
