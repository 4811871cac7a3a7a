// The window kernel. Compiled with -ffp-contract=off, like every oci
// library (cmake/OciModule.cmake): GCC contracts a*b+c into FMA by
// default, which would make a lane's bits depend on -march.
//
// Bit-stability rules (see kernels.hpp): only exactly-rounded IEEE
// operations and the portable polynomial transcendentals below. No
// libm. The polynomial log/erfinv are FDLIBM/Giles forms accurate to a
// few ulp / ~1e-7 -- statistically indistinguishable for Monte Carlo
// sampling, and identical under every compiler and flag set.
//
// Two point-process identities make a window cheap. Thinning: a
// Poisson photon stream thinned per photon by PDP is Poisson at the
// pre-multiplied rate, so avalanche CANDIDATES are drawn directly.
// Restart: after any time t a Poisson process is again Poisson, so
// each source's candidates stream lazily in time order (one Exp(1)
// hazard step + one inverse-CDF each) and fast-forward across the
// SPAD's dead time (active quench: the diode is blind and an absorbed
// carrier has no effect); a pulse whose candidate fires restarts at
// the new dead-time horizon at once, so a short pulse that ends inside
// the dead time draws nothing more. A flat-noise uniform is always
// drawn, but outside a noise tilt it is turned into an arrival time
// only when it can land before the window's horizon. A window merges
// the victim's pulse, any aggressor pulses, flat noise and afterpulse
// releases by a linear min-scan.
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

/// Afterpulse releases pending inside one window. Each entry needs an
/// avalanche AND an afterpulse coin success, and firings are at least a
/// dead time apart, so 64 concurrent pendings would need ~64 improbable
/// coin hits in one window. Overflow drops the release (negligible).
constexpr std::size_t kMaxPending = 64;

/// One lane's sources beside the engine constants.
struct LaneSources {
  double lambda_signal = 0.0;  ///< victim's candidate mean (x signal scale)
  double noise_rate = 0.0;     ///< flat candidate rate [Hz]
  std::span<PulseSource> aggressors = {};
  const RareSampling* rare = nullptr;
};

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

/// Giles (2012) inverse error function polynomial at x, given
/// w = -log(1 - x^2).
double giles_erfinv(double w, double x) {
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

/// Standard normal quantile of u in (0, 1) (jitter sampling).
double pm_probit(double u) {
  const double x = 2.0 * u - 1.0;
  return 1.4142135623730951 * giles_erfinv(-pm_log((1.0 - x) * (1.0 + x)), x);
}

/// Upper-tail normal quantile: z with Q(z) = u for u in (0, 0.5] (the
/// split driver's band magnitudes). 1 - x^2 = 4u(1 - u) comes from u
/// itself -- through x = 2u - 1 it would lose relative precision below
/// u ~ 1e-12. Giles' polynomial holds ~1e-7 only inside its fit range;
/// past w = 12 (u < ~1.5e-6) it drifts (z off by 4e-4 at u = 1e-9, by
/// 0.8 at u = 1e-16), so there z starts from the asymptotic
/// sqrt(a - log a - log 2pi), a = -2 log u, and takes four Newton steps
/// on log Q(z) = log u, with Q = phi x the Mills ratio's continued
/// fraction: machine precision down to u ~ 1e-300.
double pm_tail_quantile(double u) {
  const double w = -pm_log(4.0 * u * (1.0 - u));
  if (w <= 12.0) return -1.4142135623730951 * giles_erfinv(w, 2.0 * u - 1.0);
  const double log_u = pm_log(u);
  const double a = -2.0 * log_u;
  double z = std::sqrt(a - pm_log(a) - 1.8378770664093453);
  for (int i = 0; i < 4; ++i) {
    double t = z;  // 1 / Mills ratio = z + 1/(z + 2/(z + 3/(...)))
    for (double k = 40.0; k >= 1.0; k -= 1.0) t = z + k / t;
    z += (-0.5 * z * z - 0.91893853320467274 - pm_log(t) - log_u) / t;
  }
  return z;
}

// ---------------------------------------------------------------------
// The rectangular pulse (photonics::MicroLed::sample_emission_time's
// distribution).

/// Inverse CDF of the pulse at mass fraction `frac` in [0, 1).
double env_inv(const BatchParams& p, double frac) { return frac * p.envelope_width_s; }

/// The pulse's CDF at time x from pulse start.
double env_cdf(const BatchParams& p, double x) {
  if (x <= 0.0) return 0.0;
  return x >= p.envelope_width_s ? 1.0 : x / p.envelope_width_s;
}

// ---------------------------------------------------------------------
// One lane. `pending` is afterpulse scratch; its contents on entry are
// ignored. The plain instantiation (kMerged = false: any lane without
// aggressors or proposal) sees neither at compile time, so their code
// folds away from the hot loop.

template <bool kMerged>
void run_lane(const BatchParams& p, const LaneSources& in, WindowResult& w,
              util::CounterRng rng, std::array<double, kMaxPending>& pending) {
  const std::span<PulseSource> aggressors = kMerged ? in.aggressors : std::span<PulseSource>();
  const RareSampling* const rare = kMerged ? in.rare : nullptr;
  const auto exp1 = [&rng] { return -pm_log(rng.uniform()); };

  // Each pulse's hazard walks the cumulative mass [0, lambda); the
  // pulse's inverse CDF maps it back to a time. The victim's stream
  // lives here, the aggressors' in the caller's scratch.
  const auto advance = [&](PulseSource& s) {
    if (s.exhausted) return;
    s.hazard += exp1();
    if (s.hazard >= s.lambda) {
      s.exhausted = true;
      s.next_s = kInf;
      return;
    }
    s.next_s = s.start_s + env_inv(p, s.hazard / s.lambda);
  };
  const auto reset = [](PulseSource& s) {
    s.hazard = 0.0;
    s.next_s = kInf;
    s.exhausted = !(s.lambda > 0.0);
  };

  PulseSource sig;
  sig.start_s = w.pulse_start_s;
  sig.lambda = in.lambda_signal;
  reset(sig);
  advance(sig);
  for (PulseSource& a : aggressors) {
    reset(a);
    advance(a);
  }

  // Rare-event proposal: the flat noise stream runs at the TILTED rate
  // and pays the likelihood ratio per realised gap. Each re-arm
  // realises the previous draw (a candidate the loop fired on or
  // fast-forwarded across): log(nat/tilt) for the point plus the
  // exponential-gap density ratio. The draw outstanding at window end
  // only told the loop "no candidate before window_s", so it pays that
  // event's probability ratio instead of its density -- charging the
  // density would cost every window a factor ~(nat/tilt)*e.
  double log_weight = 0.0;
  const double noise_nat = in.noise_rate;
  const bool tilt_noise = rare != nullptr && rare->noise_scale != 1.0 && noise_nat > 0.0;
  const double noise_rate = tilt_noise ? noise_nat * rare->noise_scale : noise_nat;
  const double noise_log_ratio = tilt_noise ? -pm_log(rare->noise_scale) : 0.0;  // log(nat/tilt)
  double noise_next = kInf;
  double noise_from = 0.0;  // origin of the outstanding draw
  // Untilted noise reads its arrival only against `dead` and the window
  // end, and neither passes the horizon. Since -log u >= 1 - u, a
  // uniform with 1 - u > rate x (horizon - from) (the 1e-9 covers
  // pm_log's few-ulp error) lands past the horizon: it stays drawn but
  // is never transformed. Tilted noise weighs every arrival, so it
  // always transforms.
  const double horizon = std::max(p.window_s + p.dead_s, w.dead_in_s);
  const auto advance_noise = [&](double from) {
    if (noise_rate <= 0.0) return;
    if (tilt_noise && noise_next < kInf) {
      log_weight += noise_log_ratio + (noise_rate - noise_nat) * (noise_next - noise_from);
    }
    noise_from = from;
    const double u = rng.uniform();
    noise_next = !tilt_noise && 1.0 - u > noise_rate * (1.0 + 1e-9) * (horizon - from)
                     ? kInf
                     : from + -pm_log(u) / noise_rate;
  };
  advance_noise(0.0);

  double dead = w.dead_in_s;
  std::uint32_t np = 0;
  bool fired = false;
  bool first_sig = false;
  double first_fire = kInf;
  double first_obs = 0.0;
  double last = 0.0;

  // Restart property: the stream resumes from the envelope mass already
  // emitted by `dead`.
  const auto restart = [&](PulseSource& s) {
    s.hazard = std::max(s.hazard, s.lambda * env_cdf(p, dead - s.start_s));
    s.next_s = kInf;
    if (s.hazard >= s.lambda) {
      s.exhausted = true;
      return;
    }
    advance(s);
  };
  // The loop guards against rounding: a restarted candidate can land an
  // ulp before `dead`.
  const auto fast_forward = [&](PulseSource& s) {
    while (!s.exhausted && s.next_s < dead) restart(s);
  };
  // A pulse source steps past the candidate that just fired: nothing
  // before the new `dead` can fire, so the source restarts there, as
  // the fast-forward would, instead of drawing a candidate the
  // fast-forward discards.
  const auto next_candidate = [&](PulseSource& s) {
    restart(s);
    fast_forward(s);
  };

  enum class Kind { kSignal, kAggressor, kNoise, kAfterpulse };
  while (true) {
    // Nothing fires before `dead` and absorbed carriers have no effect,
    // so every stream fast-forwards.
    fast_forward(sig);
    for (PulseSource& a : aggressors) fast_forward(a);
    if (noise_next < dead) advance_noise(dead);
    for (std::uint32_t i = 0; i < np;) {
      if (pending[i] < dead) {
        pending[i] = pending[--np];
      } else {
        ++i;
      }
    }

    double t = sig.next_s;
    Kind kind = Kind::kSignal;
    std::size_t winner = 0;
    for (std::size_t i = 0; i < aggressors.size(); ++i) {
      if (aggressors[i].next_s < t) {
        t = aggressors[i].next_s;
        kind = Kind::kAggressor;
        winner = i;
      }
    }
    if (noise_next < t) {
      t = noise_next;
      kind = Kind::kNoise;
    }
    for (std::uint32_t i = 0; i < np; ++i) {
      if (pending[i] < t) {
        t = pending[i];
        kind = Kind::kAfterpulse;
        winner = i;
      }
    }
    if (t >= p.window_s) break;

    // Avalanche fires. Only the first detection's timestamp reaches the
    // TDC, so the jitter draw is spent on that one alone.
    if (!fired) {
      fired = true;
      first_sig = kind == Kind::kSignal;
      first_fire = t;
      const double sigma = p.jitter_sigma_s;
      if (rare != nullptr && sigma > 0.0 && rare->condition_jitter) {
        // Stratified splitting: magnitude from the half-normal
        // conditioned to the band (S_hi, S_lo) of the two-sided
        // survival S(z) = P(|Z| >= z); the band mass is the DRIVER's
        // weight, so no likelihood-ratio term lands here. The uniform
        // is never 0, so s stays strictly above the far edge.
        const double s = rare->band_survival_hi +
                         rng.uniform() * (rare->band_survival_lo - rare->band_survival_hi);
        const double z = pm_tail_quantile(0.5 * s);
        const double sign = rng.uniform() < 0.5 ? 1.0 : -1.0;
        first_obs = t + sign * std::max(z, 0.0) * sigma;
      } else if (rare != nullptr && sigma > 0.0 && rare->jitter_scale != 1.0) {
        // Exponential tilt of the jitter variance: sample from
        // N(0, (g*sigma)^2) and pay the exact Gaussian density ratio.
        const double g = rare->jitter_scale;
        const double x = sigma * g * pm_probit(rng.uniform());
        log_weight += pm_log(g) + x * x * (1.0 / (g * g) - 1.0) / (2.0 * sigma * sigma);
        first_obs = t + x;
      } else {
        first_obs = t + sigma * pm_probit(rng.uniform());
      }
    }
    last = t;
    dead = t + p.dead_s;

    if (p.afterpulse_p > 0.0 && rng.uniform() < p.afterpulse_p) {
      const double release = dead + exp1() * p.afterpulse_tau_s;
      if (release < p.window_s && np < kMaxPending) {
        pending[np++] = release;
      }
    }

    // The fired candidate's source steps past it.
    switch (kind) {
      case Kind::kSignal:
        next_candidate(sig);
        break;
      case Kind::kAggressor:
        next_candidate(aggressors[winner]);
        break;
      case Kind::kNoise:
        advance_noise(noise_next);
        break;
      case Kind::kAfterpulse:
        pending[winner] = pending[--np];
        break;
    }
  }

  if (tilt_noise && noise_next < kInf) {
    log_weight += (noise_rate - noise_nat) * std::max(p.window_s - noise_from, 0.0);
  }

  w.fired = fired;
  w.first_is_signal = first_sig;
  w.first_fire_s = first_fire;
  w.first_observed_s = first_obs;
  w.last_fire_s = last;
  w.dead_out_s = dead;
  w.rng_draws = rng.draws();
  w.log_weight = log_weight;
}

}  // namespace

void simulate_windows(const BatchParams& p, std::span<WindowResult> windows,
                      const util::BatchRngStream& lanes, std::uint64_t first_lane,
                      const LaneInputs& in) {
  std::array<double, kMaxPending> pending{};
  LaneSources src{.lambda_signal = p.lambda_signal, .noise_rate = p.noise_rate, .rare = in.rare};
  if (in.signal_scale.empty() && in.aggressors.empty() && in.rare == nullptr) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      run_lane<false>(p, src, windows[i], lanes.lane(first_lane + i), pending);
    }
    return;
  }
  const std::size_t k = windows.empty() ? 0 : in.aggressors.size() / windows.size();
  const bool merged = k > 0 || in.rare != nullptr;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    // x1.0 leaves lambda exact.
    if (!in.signal_scale.empty()) {
      src.lambda_signal = p.lambda_signal * std::max(in.signal_scale[i], 0.0);
    }
    src.aggressors = in.aggressors.subspan(i * k, k);
    if (merged) {
      run_lane<true>(p, src, windows[i], lanes.lane(first_lane + i), pending);
    } else {
      run_lane<false>(p, src, windows[i], lanes.lane(first_lane + i), pending);
    }
  }
}

const KernelTable& active_kernels() {
  static const KernelTable table;
  return table;
}

}  // namespace oci::link::kernels
