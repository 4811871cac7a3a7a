// The batched window kernel. Compiled with -ffp-contract=off (see
// src/link/CMakeLists.txt): GCC contracts a*b+c into FMA by default,
// which would make a lane's bits depend on -march.
//
// Bit-stability rules (see kernels.hpp): only exactly-rounded IEEE
// operations and the portable polynomial transcendentals below. No
// libm. The polynomial log/exp/erfinv are FDLIBM/Giles forms accurate
// to a few ulp / ~1e-7 -- statistically indistinguishable for Monte
// Carlo sampling, and identical under every compiler and flag set.
//
// The per-window algorithm mirrors link_engine.cpp's simulate_window
// for the single-signal-source case exactly (same event loop, same
// quench/afterpulse/dead-time semantics); only the RNG differs (a
// counter stream per lane instead of one shared mt19937_64 -- see
// util/batch_rng.hpp for why that is the batching contract).
#include "oci/link/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace oci::link::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Afterpulse releases pending inside one window; mirrors
/// link_engine.cpp's kMaxPending (overflow drops the release,
/// documented there).
constexpr std::size_t kMaxPending = 64;

// ---------------------------------------------------------------------
// Portable transcendentals.

/// FDLIBM natural log (main path, no small-|f| refinement branch):
/// x = 2^k * m with m in [sqrt(2)/2, sqrt(2)), atanh-series polynomial.
/// Defined for normal positive x.
double pm_log(double x) {
  constexpr std::uint64_t kOff = 0x3fe6a09e667f3bcdull;  // bits of sqrt(2)/2
  // ix - kOff, wrapping, then rebias so that k + 1023 >= 0.
  const std::uint64_t tmp = std::bit_cast<std::uint64_t>(x) - kOff + (0x3ffull << 52);
  const auto dk = static_cast<double>(static_cast<std::int64_t>(tmp >> 52) - 1023);
  const double m =
      std::bit_cast<double>((tmp & 0x000fffffffffffffull) + kOff);  // in [sqrt(2)/2, sqrt(2))

  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 =
      w * (3.999999999940941908e-01 +
           w * (2.222219843214978396e-01 + w * 1.531383769920937332e-01));
  const double t2 =
      z * (6.666666666666735130e-01 +
           w * (2.857142874366239149e-01 +
                w * (1.818357216161805012e-01 + w * 1.479819860511658591e-01)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * (f * f);
  // dk*ln2_hi - ((hfsq - (s*(hfsq+R) + dk*ln2_lo)) - f)
  return dk * 6.93147180369123816490e-01 -
         ((hfsq - (s * (hfsq + r) + dk * 1.90821492927058770002e-10)) - f);
}

/// FDLIBM exp (main path): the envelope CDF fast-forward and erfc.
double pm_exp(double x) {
  if (x < -708.0) return 0.0;  // underflow guard; our args are <= 0
  if (x > 708.0) return kInf;
  const double half = x >= 0.0 ? 0.5 : -0.5;
  const auto k = static_cast<long>(1.44269504088896338700e+00 * x + half);
  const auto dk = static_cast<double>(k);
  const double hi = x - dk * 6.93147180369123816490e-01;
  const double lo = dk * 1.90821492927058770002e-10;
  const double r = hi - lo;
  const double t = r * r;
  const double c =
      r - t * (1.66666666666666019037e-01 +
               t * (-2.77777777770155933842e-03 +
                    t * (6.61375632143793436117e-05 +
                         t * (-1.65339022054652515390e-06 +
                              t * 4.13813679705723846039e-08))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // Scale by 2^k through the exponent bits; |k| < 1090 after the guards.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(y) +
                             (static_cast<std::uint64_t>(static_cast<std::int64_t>(k))
                              << 52);
  return std::bit_cast<double>(bits);
}

/// Giles (2012) inverse error function with pm_log.
double pm_erfinv(double x) {
  const double w = -pm_log((1.0 - x) * (1.0 + x));
  double p = 0.0;
  if (w < 5.0) {
    const double ww = w - 2.5;
    p = 2.81022636e-08;
    p = 3.43273939e-07 + p * ww;
    p = -3.5233877e-06 + p * ww;
    p = -4.39150654e-06 + p * ww;
    p = 0.00021858087 + p * ww;
    p = -0.00125372503 + p * ww;
    p = -0.00417768164 + p * ww;
    p = 0.246640727 + p * ww;
    p = 1.50140941 + p * ww;
  } else {
    const double ww = std::sqrt(w) - 3.0;
    p = -0.000200214257;
    p = 0.000100950558 + p * ww;
    p = 0.00134934322 + p * ww;
    p = -0.00367342844 + p * ww;
    p = 0.00573950773 + p * ww;
    p = -0.0076224613 + p * ww;
    p = 0.00943887047 + p * ww;
    p = 1.00167406 + p * ww;
    p = 2.83297682 + p * ww;
  }
  return p * x;
}

/// Standard normal quantile of u in (0, 1) (jitter and Gaussian-envelope
/// sampling).
double pm_probit(double u) { return 1.4142135623730951 * pm_erfinv(2.0 * u - 1.0); }

/// Complementary error function, Abramowitz & Stegun 7.1.26 (~1.5e-7
/// absolute) -- Gaussian-envelope mass fast-forward.
double pm_erfc(double x) {
  const double y = x < 0.0 ? -x : x;
  const double t = 1.0 / (1.0 + 0.3275911 * y);
  const double poly =
      t * (0.254829592 +
           t * (-0.284496736 +
                t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
  const double erfc_pos = poly * pm_exp(-y * y);
  return x < 0.0 ? 2.0 - erfc_pos : erfc_pos;
}

// ---------------------------------------------------------------------
// Envelope transforms (see photonics::MicroLed::sample_emission_time /
// emission_cdf -- same distributions, portable primitives).

/// Inverse CDF of the envelope at mass fraction `frac` in [0, 1).
template <EnvelopeKind E>
double env_inv(const BatchParams& p, double frac) {
  if constexpr (E == EnvelopeKind::kRectangular) {
    return frac * p.envelope_width_s;
  } else if constexpr (E == EnvelopeKind::kExponential) {
    return -p.envelope_width_s * pm_log(1.0 - frac);
  } else {
    const double sigma = p.envelope_width_s / 6.0;
    const double mu = p.envelope_width_s / 2.0;
    const double t = mu + sigma * pm_probit(frac);
    return t < 0.0 ? 0.0 : t;  // clip the tail below pulse start
  }
}

/// Envelope CDF at time x from pulse start.
template <EnvelopeKind E>
double env_cdf(const BatchParams& p, double x) {
  if (x <= 0.0) return 0.0;
  if constexpr (E == EnvelopeKind::kRectangular) {
    return x >= p.envelope_width_s ? 1.0 : x / p.envelope_width_s;
  } else if constexpr (E == EnvelopeKind::kExponential) {
    return 1.0 - pm_exp(-x / p.envelope_width_s);
  } else {
    const double sigma = p.envelope_width_s / 6.0;
    const double mu = p.envelope_width_s / 2.0;
    return 0.5 * pm_erfc(-(x - mu) / (sigma * 1.4142135623730951));
  }
}

// ---------------------------------------------------------------------
// One lane: simulate_window's event loop on the lane's counter stream.
// `pending` is afterpulse scratch; its contents on entry are ignored.
template <EnvelopeKind E>
void simulate_lane(const BatchParams& p, WindowResult& w, util::CounterRng rng,
                   std::array<double, kMaxPending>& pending) {
  const auto exp1 = [&rng] { return -pm_log(rng.uniform()); };

  // First draws: the signal hazard step (only when there is a signal),
  // then the first noise arrival (only when there is noise).
  const double lambda = p.lambda_signal;
  const double pulse_start = w.pulse_start_s;
  double sig_hazard = 0.0;
  double sig_next = kInf;
  if (lambda > 0.0) {
    sig_hazard = exp1();
    sig_next =
        sig_hazard >= lambda ? kInf : pulse_start + env_inv<E>(p, sig_hazard / lambda);
  }
  double noise_next = kInf;
  if (p.noise_rate > 0.0) noise_next = exp1() / p.noise_rate;

  bool exhausted = !(sig_next < kInf);
  const auto advance_sig = [&] {
    if (exhausted) return;
    sig_hazard += exp1();
    if (sig_hazard >= lambda) {
      exhausted = true;
      sig_next = kInf;
      return;
    }
    sig_next = pulse_start + env_inv<E>(p, sig_hazard / lambda);
  };
  const auto advance_noise = [&](double from) {
    if (p.noise_rate <= 0.0) return;
    noise_next = from + exp1() / p.noise_rate;
  };

  double dead = w.dead_in_s;
  std::uint32_t np = 0;
  bool fired = false;
  bool first_sig = false;
  double first_fire = kInf;
  double first_obs = 0.0;
  double last = 0.0;

  enum class Kind { kPulse, kNoise, kAfterpulse };
  while (true) {
    if (!p.passive_quench) {
      // Active quench: fast-forward every stream across the blind
      // interval (restart property -- see simulate_window).
      while (!exhausted && sig_next < dead) {
        const double consumed = lambda * env_cdf<E>(p, dead - pulse_start);
        sig_hazard = std::max(sig_hazard, consumed);
        sig_next = kInf;
        if (sig_hazard >= lambda) {
          exhausted = true;
          break;
        }
        advance_sig();
      }
      if (noise_next < dead) advance_noise(dead);
      for (std::uint32_t i = 0; i < np;) {
        if (pending[i] < dead) {
          pending[i] = pending[--np];
        } else {
          ++i;
        }
      }
    }

    double t = sig_next;
    Kind kind = Kind::kPulse;
    std::uint32_t pidx = 0;
    if (noise_next < t) {
      t = noise_next;
      kind = Kind::kNoise;
    }
    for (std::uint32_t i = 0; i < np; ++i) {
      if (pending[i] < t) {
        t = pending[i];
        kind = Kind::kAfterpulse;
        pidx = i;
      }
    }
    if (t >= p.window_s) break;

    const auto consume = [&] {
      switch (kind) {
        case Kind::kPulse:
          advance_sig();
          break;
        case Kind::kNoise:
          advance_noise(noise_next);
          break;
        case Kind::kAfterpulse:
          pending[pidx] = pending[--np];
          break;
      }
    };

    if (p.passive_quench && t < dead) {
      dead = t + p.dead_s;  // paralyzable: the absorbed carrier restarts recharge
      consume();
      continue;
    }

    if (!fired) {
      fired = true;
      first_sig = kind == Kind::kPulse;
      first_fire = t;
      first_obs = t + p.jitter_sigma_s * pm_probit(rng.uniform());
    }
    last = t;
    dead = t + p.dead_s;

    if (p.afterpulse_p > 0.0 && rng.uniform() < p.afterpulse_p) {
      const double release = dead + exp1() * p.afterpulse_tau_s;
      if (release < p.window_s && np < kMaxPending) {
        pending[np++] = release;
      }
    }
    consume();
  }

  w.fired = fired;
  w.first_is_signal = first_sig;
  w.first_fire_s = first_fire;
  w.first_observed_s = first_obs;
  w.last_fire_s = last;
  w.dead_out_s = dead;
  w.rng_draws = rng.draws();
}

template <EnvelopeKind E>
void simulate_lanes(const BatchParams& p, std::span<WindowResult> windows,
                    const util::BatchRngStream& lanes, std::uint64_t first_lane) {
  std::array<double, kMaxPending> pending{};
  for (std::size_t i = 0; i < windows.size(); ++i) {
    simulate_lane<E>(p, windows[i], lanes.lane(first_lane + i), pending);
  }
}

}  // namespace

void simulate_windows(const BatchParams& p, std::span<WindowResult> windows,
                      const util::BatchRngStream& lanes, std::uint64_t first_lane) {
  switch (p.envelope) {
    case EnvelopeKind::kRectangular:
      simulate_lanes<EnvelopeKind::kRectangular>(p, windows, lanes, first_lane);
      break;
    case EnvelopeKind::kExponential:
      simulate_lanes<EnvelopeKind::kExponential>(p, windows, lanes, first_lane);
      break;
    case EnvelopeKind::kGaussian:
      simulate_lanes<EnvelopeKind::kGaussian>(p, windows, lanes, first_lane);
      break;
  }
}

const KernelTable& active_kernels() {
  static const KernelTable table;
  return table;
}

}  // namespace oci::link::kernels
