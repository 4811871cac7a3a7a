#include "oci/link/link_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "oci/util/math.hpp"

namespace oci::link {

namespace {

using util::RngStream;
using util::Time;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Afterpulse releases pending inside one window. Each entry required an
// avalanche AND an afterpulse coin success, and firings are separated
// by at least the dead time, so 64 concurrent pendings would need ~64
// improbable coin hits in a single window: beyond any realistic
// configuration. Overflow drops the release (documented, negligible).
constexpr std::size_t kMaxPending = 64;

}  // namespace

LinkEngine::LinkEngine(const OpticalLink& link)
    : link_(&link),
      led_(&link.led()),
      lambda_signal_(link.led().photons_per_pulse() *
                     link.config().channel_transmittance * link.detector().pdp()),
      pdp_(link.detector().pdp()),
      dark_rate_(link.detector().dcr().hertz()),
      noise_rate_(link.detector().dcr().hertz() +
                  link.config().background_rate.hertz() * link.detector().pdp()),
      window_s_(link.toa_window().seconds()),
      dead_s_(link.detector().params().dead_time.seconds()),
      passive_quench_(link.detector().params().quench == spad::QuenchMode::kPassive),
      afterpulse_probability_(link.detector().params().afterpulse_probability),
      afterpulse_tau_(link.detector().params().afterpulse_tau),
      jitter_sigma_(link.detector().params().jitter_sigma),
      symbol_period_(link.symbol_period()),
      tx_pulse_energy_(link.led().electrical_pulse_energy()),
      rx_energy_per_conversion_(link.config().rx_energy_per_conversion),
      bits_per_symbol_(link.bits_per_symbol()) {}

LinkEngine::SourceState LinkEngine::signal_state(double pulse_start_s) const {
  SourceState s;
  s.led = led_;
  s.lambda = lambda_signal_;
  s.start_s = pulse_start_s;
  s.is_signal = true;
  s.exhausted = s.lambda <= 0.0;
  s.next_s = kInf;
  return s;
}

LinkEngine::WindowEvents LinkEngine::simulate_window(std::span<SourceState> sources,
                                                     double window_start_s,
                                                     double window_end_s, double dead_in_s,
                                                     double noise_rate, RngStream& rng,
                                                     RareSampling* rare) const {
  WindowEvents result;
  double dead = dead_in_s;

  // Rare-event proposal: simulate the flat noise stream at the TILTED
  // rate and pay the likelihood-ratio per realized draw. The outstanding
  // draw at window end is Rao-Blackwellised to the event it actually
  // encodes -- "no candidate before window_end" -- instead of its
  // density: the loop never looks at the overshoot value, and charging
  // its full density would cost every window (signal-only ones
  // included) a factor ~(nat/tilt)*e, collapsing n_eff for nothing.
  const double noise_nat = noise_rate;
  const bool tilt_noise =
      rare != nullptr && rare->noise_scale != 1.0 && noise_rate > 0.0;
  if (tilt_noise) noise_rate *= rare->noise_scale;
  const double noise_log_ratio = tilt_noise ? std::log(noise_nat / noise_rate) : 0.0;
  double noise_from = window_start_s;  ///< origin of the outstanding draw
  bool noise_outstanding = false;

  // Per-source candidate streams: arrivals of each PDP-thinned pulse
  // process, generated lazily in time order. Each hazard walks the
  // cumulative mass [0, lambda); the envelope's inverse CDF maps it
  // back to a time.
  const auto advance = [&](SourceState& s) {
    if (s.exhausted) return;
    s.hazard += rng.exponential_mean(1.0);
    if (s.hazard >= s.lambda) {
      s.exhausted = true;
      s.next_s = kInf;
      return;
    }
    s.next_s = s.start_s + s.led->sample_emission_time(s.hazard / s.lambda).seconds();
  };
  for (SourceState& s : sources) advance(s);

  // Flat-rate noise candidate stream (dark counts + thinned background).
  // Each re-arm realizes the previous draw (a candidate the merge loop
  // either fired on or fast-forwarded across), so that is where its
  // exact likelihood-ratio factor lands: log(nat/tilt) for the point
  // plus the exponential-gap density ratio over the realized gap.
  double noise_next = kInf;
  const auto advance_noise = [&](double from) {
    if (noise_rate <= 0.0) return;
    if (tilt_noise && noise_outstanding) {
      rare->log_weight +=
          noise_log_ratio + (noise_rate - noise_nat) * (noise_next - noise_from);
    }
    noise_from = from;
    noise_outstanding = true;
    noise_next = from + rng.exponential_mean(1.0 / noise_rate);
  };
  advance_noise(window_start_s);

  std::array<double, kMaxPending> pending{};  // afterpulse release times
  std::size_t n_pending = 0;

  enum class Kind { kPulse, kNoise, kAfterpulse };

  while (true) {
    if (!passive_quench_) {
      // Active quench: nothing can fire before `dead`, and absorbed
      // carriers have no effect, so fast-forward every stream. Each
      // pulse stream restarts from the envelope mass already emitted
      // by `dead` (restart property); the loop guards against the
      // Gaussian envelope's approximate CDF/inverse-CDF pair.
      for (SourceState& s : sources) {
        while (!s.exhausted && s.next_s < dead) {
          const double consumed =
              s.lambda * s.led->emission_cdf(Time::seconds(dead - s.start_s));
          s.hazard = std::max(s.hazard, consumed);
          s.next_s = kInf;
          if (s.hazard >= s.lambda) {
            s.exhausted = true;
            break;
          }
          advance(s);
        }
      }
      if (noise_next < dead) advance_noise(dead);
      // Pending afterpulses landing in the blind interval are absorbed.
      for (std::size_t i = 0; i < n_pending;) {
        if (pending[i] < dead) {
          pending[i] = pending[--n_pending];
        } else {
          ++i;
        }
      }
    }

    // Earliest candidate across every stream: k-way merge by linear
    // scan (K is the source count -- a handful; a heap would cost more
    // in bookkeeping than it saves).
    double t = kInf;
    Kind kind = Kind::kPulse;
    std::size_t winner = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (sources[i].next_s < t) {
        t = sources[i].next_s;
        winner = i;
      }
    }
    if (noise_next < t) {
      t = noise_next;
      kind = Kind::kNoise;
    }
    std::size_t pending_index = 0;
    for (std::size_t i = 0; i < n_pending; ++i) {
      if (pending[i] < t) {
        t = pending[i];
        kind = Kind::kAfterpulse;
        pending_index = i;
      }
    }
    if (t >= window_end_s) break;

    const auto consume = [&] {
      switch (kind) {
        case Kind::kPulse:
          advance(sources[winner]);
          break;
        case Kind::kNoise:
          advance_noise(noise_next);
          break;
        case Kind::kAfterpulse:
          pending[pending_index] = pending[--n_pending];
          break;
      }
    };

    if (passive_quench_ && t < dead) {
      // Paralyzable dead time: the absorbed carrier restarts recharge.
      dead = t + dead_s_;
      consume();
      continue;
    }

    // Avalanche fires. Only the first detection's timestamp reaches the
    // TDC, so the jitter draw is spent on that one alone.
    if (!result.fired) {
      result.fired = true;
      result.first_is_signal = kind == Kind::kPulse && sources[winner].is_signal;
      const double sigma_s = jitter_sigma_.seconds();
      if (rare != nullptr && sigma_s > 0.0 && rare->condition_jitter) {
        // Stratified splitting: magnitude from the half-normal
        // conditioned to the band (S_hi, S_lo] of the two-sided
        // survival S(z) = P(|Z| >= z); the band mass is the DRIVER's
        // weight, so no likelihood-ratio term lands here. uniform()
        // is in [0, 1), so s stays strictly above the far edge.
        const double u = rng.uniform();
        const double s =
            rare->band_survival_lo -
            u * (rare->band_survival_lo - rare->band_survival_hi);
        const double z = -util::normal_quantile(0.5 * s);
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        result.first_observed_s = t + sign * std::max(z, 0.0) * sigma_s;
      } else if (rare != nullptr && sigma_s > 0.0 && rare->jitter_scale != 1.0) {
        // Exponential tilt of the jitter variance: sample from
        // N(0, (g*sigma)^2) and pay the exact Gaussian density ratio.
        const double g = rare->jitter_scale;
        const double x = rng.normal(0.0, sigma_s * g);
        rare->log_weight +=
            std::log(g) + x * x * (1.0 / (g * g) - 1.0) / (2.0 * sigma_s * sigma_s);
        result.first_observed_s = t + x;
      } else {
        result.first_observed_s =
            t + rng.normal_time(Time::zero(), jitter_sigma_).seconds();
      }
    }
    result.last_fire_s = t;
    dead = t + dead_s_;

    if (afterpulse_probability_ > 0.0 && rng.bernoulli(afterpulse_probability_)) {
      const double release = dead + rng.exponential_time(afterpulse_tau_).seconds();
      if (release < window_end_s && n_pending < kMaxPending) {
        pending[n_pending++] = release;
      }
    }
    consume();
  }

  // Window over: the outstanding noise draw only told the loop "no
  // candidate before window_end", so its likelihood-ratio factor is
  // that event's probability ratio (truncation, not density).
  if (tilt_noise && noise_outstanding) {
    rare->log_weight +=
        (noise_rate - noise_nat) * std::max(window_end_s - noise_from, 0.0);
  }

  return result;
}

std::uint64_t LinkEngine::transmit_symbol(std::uint64_t symbol, Time start, Time& dead_until,
                                          LinkRunStats& stats, RngStream& rng,
                                          const WindowRequest& request) const {
  const double window_start_s = start.seconds();
  const double window_end_s = window_start_s + window_s_;

  // Source 0 is the victim's own pulse; x1.0 leaves lambda exact.
  SourceState signal = signal_state(window_start_s + link_->ppm().encode(symbol).seconds());
  signal.lambda *= std::max(request.signal_scale, 0.0);
  signal.exhausted = signal.lambda <= 0.0;
  sources_.clear();
  sources_.push_back(signal);
  for (const SourcePulse& a : request.aggressors) {
    SourceState s;
    s.led = a.led;
    s.lambda = a.mean_photons * pdp_;  // thinning: victim PDP pre-multiplied
    s.start_s = a.start.seconds();
    s.is_signal = false;
    s.exhausted = s.lambda <= 0.0 || a.led == nullptr;
    s.next_s = kInf;
    sources_.push_back(s);
  }
  if (request.rare != nullptr) request.rare->log_weight = 0.0;

  const WindowEvents window =
      simulate_window(sources_, window_start_s, window_end_s, dead_until.seconds(),
                      noise_rate_, rng, request.rare);

  // SPAD stays blind into the next window after its last avalanche.
  if (window.fired) {
    dead_until = Time::seconds(window.last_fire_s) + link_->detector().params().dead_time;
  }

  ++stats.symbols_sent;
  stats.total_bits += bits_per_symbol_;
  stats.tx_energy += tx_pulse_energy_;
  stats.rx_energy += rx_energy_per_conversion_;
  stats.elapsed += symbol_period_;

  if (!window.fired) {
    ++stats.erasures;
    stats.bit_errors += modulation::PpmCodec::hamming(symbol, 0);
    return 0;  // receiver emits the all-zero symbol on erasure
  }

  if (!window.first_is_signal) ++stats.noise_captures;
  return decode_first_avalanche(symbol, window.first_observed_s - window_start_s, stats,
                                rng);
}

std::uint64_t LinkEngine::decode_first_avalanche(std::uint64_t symbol, double toa_s,
                                                 LinkRunStats& stats,
                                                 RngStream& rng) const {
  // TDC conversion of the first avalanche's TOA within the window.
  const Time toa = Time::seconds(toa_s);
  const tdc::Tdc& tdc = link_->tdc();
  const tdc::TdcReading reading = tdc.convert(toa, rng);
  const tdc::CalibrationLut& lut = link_->calibration_lut();
  const Time calibrated =
      lut.valid() ? lut.correct(reading, tdc.clock_period()) : reading.estimate;

  // Static offset: subtract the trained receive-chain bias so the slot
  // decision is centred on the encoder's pulse placement.
  Time corrected = calibrated - link_->detection_offset();
  if (corrected < Time::zero()) corrected = Time::zero();

  const std::uint64_t decoded = link_->ppm().decode(corrected);
  if (decoded != symbol) {
    ++stats.symbol_errors;
    stats.bit_errors += modulation::PpmCodec::hamming(symbol, decoded);
  }
  return decoded;
}

LinkRunStats LinkEngine::measure(std::uint64_t count, RngStream& rng) const {
  return run_symbols(count, rng, [](std::uint64_t, const SymbolOutcome&) {});
}

kernels::BatchParams LinkEngine::batch_params() const {
  kernels::BatchParams p;
  p.lambda_signal = lambda_signal_;
  p.noise_rate = noise_rate_;
  p.window_s = window_s_;
  p.dead_s = dead_s_;
  p.afterpulse_p = afterpulse_probability_;
  p.afterpulse_tau_s = afterpulse_tau_.seconds();
  p.jitter_sigma_s = jitter_sigma_.seconds();
  p.envelope_width_s = led_->params().pulse_width.seconds();
  switch (led_->params().shape) {
    case photonics::PulseShape::kRectangular:
      p.envelope = kernels::EnvelopeKind::kRectangular;
      break;
    case photonics::PulseShape::kExponential:
      p.envelope = kernels::EnvelopeKind::kExponential;
      break;
    case photonics::PulseShape::kGaussian:
      p.envelope = kernels::EnvelopeKind::kGaussian;
      break;
  }
  p.passive_quench = passive_quench_;
  return p;
}

void LinkEngine::simulate_windows(std::span<WindowResult> windows,
                                  const util::BatchRngStream& lanes,
                                  EngineBatchScratch& /*scratch*/,
                                  std::uint64_t first_lane) const {
  kernels::simulate_windows(batch_params(), windows, lanes, first_lane);
}

void LinkEngine::run_window_batch(std::span<const std::uint64_t> symbols,
                                  std::uint64_t first_lane,
                                  const util::BatchRngStream& lanes, double& carry_s,
                                  LinkRunStats& stats, RngStream& rng) const {
  const std::size_t n = symbols.size();
  // Reserve the FULL batch capacity up front: the first (possibly
  // small) batch must leave later full-size batches allocation-free.
  batch_scratch_.reserve(std::max(n, kEngineBatch));
  std::vector<WindowResult>& ws = batch_scratch_.windows_;
  ws.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    ws[j] = WindowResult{};
    ws[j].pulse_start_s = link_->ppm().encode(symbols[j]).seconds();
    // Lane 0 takes the real carry; later lanes speculate no blindness
    // (right unless the previous window's dead time spills past the
    // symbol period AND this lane's first fire lands inside it).
    ws[j].dead_in_s = j == 0 ? carry_s : 0.0;
  }
  simulate_windows(ws, lanes, batch_scratch_, first_lane);

  const double period_s = symbol_period_.seconds();
  batch_scratch_.decoded_.resize(n);
  batch_scratch_.erased_.resize(n);
  double carry = carry_s;
  for (std::size_t j = 0; j < n; ++j) {
    if (j > 0 && carry > 0.0) {
      if (ws[j].fired && ws[j].first_fire_s < carry) {
        // Phantom fire inside the true blind interval: replay the lane
        // with the real carry. Decomposability makes the replay the
        // lane's one true history -- the counter stream restarts from
        // the lane key, so the result is exactly what a sequential
        // simulation would have produced.
        ws[j].dead_in_s = carry;
        simulate_windows(std::span<WindowResult>(&ws[j], 1), lanes, batch_scratch_,
                         first_lane + j);
      }
      // A lane whose first fire clears the carry saw no candidate
      // inside it, so the speculative trajectory IS the true one.
    }
    // Dead-time carry into the next window, window-local to it; mirrors
    // finish_symbol (the blind horizon advances only on a fire).
    carry = ws[j].fired ? ws[j].last_fire_s + dead_s_ - period_s : carry - period_s;

    stats.rng_draws += ws[j].rng_draws;
    ++stats.symbols_sent;
    stats.total_bits += bits_per_symbol_;
    stats.tx_energy += tx_pulse_energy_;
    stats.rx_energy += rx_energy_per_conversion_;
    stats.elapsed += symbol_period_;
    if (!ws[j].fired) {
      ++stats.erasures;
      stats.bit_errors += modulation::PpmCodec::hamming(symbols[j], 0);
      batch_scratch_.decoded_[j] = 0;  // receiver emits all-zero on erasure
      batch_scratch_.erased_[j] = 1;
      continue;
    }
    batch_scratch_.erased_[j] = 0;
    if (!ws[j].first_is_signal) ++stats.noise_captures;
    batch_scratch_.decoded_[j] =
        decode_first_avalanche(symbols[j], ws[j].first_observed_s, stats, rng);
  }
  carry_s = carry;
}

std::optional<Time> LinkEngine::probe_pulse(Time pulse_start, RngStream& rng) const {
  // Training pulses are a controlled procedure: the dark-count rate is
  // intrinsic to the junction and stays, but ambient background flux is
  // excluded (the reference training never merged background photons).
  SourceState signal = signal_state(pulse_start.seconds());
  const WindowEvents window = simulate_window(std::span<SourceState>(&signal, 1), 0.0,
                                              window_s_, 0.0, dark_rate_, rng);
  if (!window.fired || !window.first_is_signal) return std::nullopt;
  return Time::seconds(window.first_observed_s);
}

}  // namespace oci::link
