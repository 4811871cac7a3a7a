// Rare-event acceleration for deep-SER estimation: importance sampling
// (exponential tilting of the jitter/noise proposals) and multilevel
// splitting (stratified sampling over near-threshold decode-margin
// bands). Below ~1e-6 no feasible crude-MC budget observes a single
// error, adaptive stopping or not; the drivers here spend the same
// per-chunk budget under a proposal that concentrates on the error
// region and hand back likelihood-ratio-weighted counts, which the
// Wilson/Wald estimator stack already accepts as fractional successes.
//
// Policy vs mechanism: this module owns the POLICY -- which proposal,
// which factors, which level schedule, how weights roll up into a
// chunk. The MECHANISM (tilted window simulation with exact per-symbol
// log likelihood-ratios) is link::LinkEngine::run_symbols with
// WindowInputs whose `rare` points at the proposal and whose windows
// are independent.
// The scenario layer declares the policy via `variance.*` spec
// keys (a rare::RareSpec on ScenarioSpec) and routes accelerated
// points here from its p2p-symbols path.
//
// Estimand note: both drivers sample i.i.d. symbol windows (the
// dead-time carry resets per symbol), which is exactly the per-window
// SER the estimator reports. Cross-window dead-time coupling is a
// different, nearly identical estimand; the overlap-region z-tests in
// rare_test pin the agreement against the crude (carried) path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oci/analysis/sequential.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/util/random.hpp"

namespace oci::rare {

/// Which acceleration engine a point runs (scenario key: variance.kind).
enum class Kind {
  kNone,   ///< crude Monte Carlo (the default batched window path)
  kTilt,   ///< importance sampling: jitter/noise exponential tilting
  kSplit,  ///< multilevel splitting: stratified decode-margin bands
};

/// Declarative rare-event policy carried by ScenarioSpec (all knobs
/// sweepable; validation lives in ScenarioSpec::validate()).
struct RareSpec {
  Kind kind = Kind::kNone;
  /// Tilt: sample TDC jitter from N(0, (jitter_tilt x sigma)^2).
  double jitter_tilt = 1.0;
  /// Tilt: simulate the flat noise-candidate rate x noise_tilt.
  double noise_tilt = 1.0;
  /// Split: decode-margin levels in JITTER SIGMA UNITS, colon-separated
  /// and strictly decreasing (e.g. "3:2:1:0" -- colons because commas
  /// separate sweep-axis values). Level l marks the threshold
  /// |jitter| >= half_slot/sigma - l; "" derives an even schedule of
  /// `split_levels` thresholds.
  std::string levels;
  /// Split: auto-schedule size when `levels` is empty.
  std::uint32_t split_levels = 4;

  [[nodiscard]] bool active() const { return kind != Kind::kNone; }
};

/// Parses a colon-separated level schedule. Throws std::invalid_argument
/// on malformed numbers, non-finite or negative values, or a sequence
/// that is not strictly decreasing.
[[nodiscard]] std::vector<double> parse_levels(const std::string& text);

/// One stratum of |jitter| / sigma: the band whose two-sided normal
/// survival S(z) = P(|Z| >= z) spans (survival_hi, survival_lo], with
/// mass = survival_lo - survival_hi.
struct Band {
  double survival_lo = 1.0;
  double survival_hi = 0.0;
  double mass = 1.0;
};

/// Resolves the splitting spec into strictly nested bands for a link
/// whose decode boundary sits half_slot_s / jitter_sigma_s sigmas out.
/// Degenerate inputs (sigma <= 0, every threshold clamped away,
/// underflowed tail mass) collapse to fewer bands -- down to the single
/// unconditioned band, which reproduces crude MC exactly.
[[nodiscard]] std::vector<Band> resolve_bands(const RareSpec& spec, double half_slot_s,
                                              double jitter_sigma_s);

/// One accelerated chunk's weighted counts. Every per-symbol error
/// count is accumulated x its symbol's likelihood-ratio weight, so
/// `w_* / samples` are unbiased estimates of the natural-measure rates
/// and feed RateAccumulator as fractional successes. `stats` carries
/// the unconditional accounting (symbols sent, bits, energy, elapsed);
/// its raw error counters are PROPOSAL-measure counts -- use the
/// weighted sums.
struct ChunkResult {
  std::uint64_t samples = 0;
  double w_symbol_errors = 0.0;   ///< sum w x (decode-error indicator)
  double w_erasures = 0.0;        ///< sum w x (erasure indicator)
  double w_bit_errors = 0.0;      ///< sum w x (bit-error delta)
  double w_noise_captures = 0.0;  ///< sum w x (noise-capture indicator)
  /// sum (w x ser-error indicator)^2: the second moment the weighted
  /// estimator's variance diagnostic needs (ser = errors + erasures).
  double err_weight_sq = 0.0;
  analysis::WeightStats weights;  ///< every per-symbol weight
  link::LinkRunStats stats;
  /// Draws on the driver's forked streams plus the windows' kernel-lane
  /// draws (stats.rng_draws).
  std::uint64_t rng_draws = 0;
};

/// Runs one chunk of `samples` i.i.d. symbol windows under the spec's
/// proposal. All randomness forks off `rng` under "rare/<point>/..."
/// labels (one stream per splitting band, keyed by level index), so
/// the result is a pure function of (link config, spec, chunk stream):
/// bit-identical across thread counts and shards. Requires
/// spec.active().
[[nodiscard]] ChunkResult run_chunk(const link::OpticalLink& link, const RareSpec& spec,
                                    std::uint64_t samples, std::uint64_t point_index,
                                    util::RngStream& rng);

}  // namespace oci::rare
