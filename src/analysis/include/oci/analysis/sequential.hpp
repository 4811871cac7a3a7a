// Sequential (streaming) statistics for adaptive-precision Monte Carlo.
// The paper's headline numbers are rare-event estimates -- SER/BER vs
// jitter, delivery under dark counts -- so a fixed per-point sample
// budget over-samples the deep-error floor and under-samples the
// threshold knee. The types here let a runner grow each point's sample
// count in deterministic chunks until a *statistical* stopping rule
// fires: a target confidence-interval half-width (absolute or relative)
// or a rare-event bound ("the upper confidence limit is already below
// the threshold we care about"). ScenarioRunner drives them through
// sim::BatchRunner::map_until; they are equally usable standalone.
#pragma once

#include <cstddef>
#include <cstdint>

#include "oci/util/statistics.hpp"

namespace oci::analysis {

/// One metric's interval estimate: the point value, the confidence
/// bounds, and the sample count behind them. This is the quartet every
/// RunReport metric carries in the schema_version-2 BENCH documents.
struct Estimate {
  double value = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  std::uint64_t n_samples = 0;

  [[nodiscard]] double half_width() const { return 0.5 * (ci_high - ci_low); }
};

/// Wilson score interval for a proportion. Successes may be fractional
/// (a rate scaled by a trial count the caller does not track exactly,
/// e.g. BER accumulated per symbol): the score interval only needs
/// p-hat, and stays well-behaved at p = 0 where the Wald interval
/// collapses to zero width.
[[nodiscard]] Estimate wilson_estimate(double successes, std::uint64_t trials,
                                       double z = 1.96);

/// Streaming binomial-rate accumulator: chunks contribute (rate,
/// trials) pairs and the accumulator answers with Wilson confidence
/// intervals over the pooled counts.
class RateAccumulator {
 public:
  /// Folds one chunk in: `rate` over `trials` samples.
  void add(double rate, std::uint64_t trials);

  /// Rebuilds an accumulator from serialized pooled counts (the scenario
  /// result store / report merge path). Exact: the state IS the counts.
  [[nodiscard]] static RateAccumulator from_counts(double successes,
                                                   std::uint64_t trials);

  /// Pools another accumulator's counts in. Only meaningful when the two
  /// accumulators observed independent samples (e.g. shards of a sweep
  /// run under different seeds).
  void merge(const RateAccumulator& other);

  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] double successes() const { return successes_; }
  [[nodiscard]] Estimate wilson(double z = 1.96) const;

 private:
  double successes_ = 0.0;
  std::uint64_t trials_ = 0;
};

/// Streaming mean accumulator over equal-size chunks (the batch-means
/// method): each chunk's mean is one observation, and the interval is
/// the Wald interval over the between-chunk spread. Correct for any
/// per-sample distribution as long as chunks are identically sized and
/// independent -- which BatchRunner's per-(seed, label, index, chunk)
/// streams guarantee.
class MeanAccumulator {
 public:
  /// Folds one chunk in: the chunk's mean over `chunk_samples` samples.
  void add(double chunk_mean, std::uint64_t chunk_samples);

  /// Rebuilds an accumulator from serialized batch-mean moments
  /// (chunk count, mean of chunk means, M2 over chunk means) plus the
  /// underlying per-sample count.
  [[nodiscard]] static MeanAccumulator from_state(std::size_t chunks,
                                                  double batch_mean,
                                                  double batch_m2,
                                                  std::uint64_t samples);

  /// Pools another accumulator's batch means in. Valid when both sides
  /// used the same chunk size and observed independent streams.
  void merge(const MeanAccumulator& other);

  [[nodiscard]] std::size_t chunks() const { return batch_.count(); }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] double mean() const { return batch_.mean(); }
  /// M2 over the chunk means -- the serializable half of the batch
  /// state, see util::RunningStats::m2().
  [[nodiscard]] double batch_m2() const { return batch_.m2(); }
  /// Wald interval over the chunk means; with fewer than two chunks the
  /// bounds collapse to the mean (no spread information yet).
  [[nodiscard]] Estimate interval(double z = 1.96) const;

 private:
  util::RunningStats batch_;
  std::uint64_t samples_ = 0;
};

/// Streaming moments of importance-sampling weights. Rare-event
/// accelerated chunks (oci::rare) report every per-sample likelihood
/// ratio here; the moments answer the two questions weighted estimates
/// raise: how many CRUDE samples is this weighted run worth
/// (`n_eff` = (sum w)^2 / sum w^2, the Kish effective sample size) and
/// how skewed are the weights (`weight_cv`). A healthy tilt keeps
/// n_eff within a small factor of n; n_eff << n means the proposal
/// over-shot. State is three doubles, so it pools across shards and
/// round-trips through the result store exactly.
class WeightStats {
 public:
  /// Folds one sample's likelihood-ratio weight in.
  void add(double weight);

  /// Rebuilds from serialized moments (store / merge path). NaN or
  /// negative moments collapse to the empty state.
  [[nodiscard]] static WeightStats from_state(double sum, double sum_sq,
                                              std::uint64_t count);

  /// Pools another accumulator in (independent samples only).
  void merge(const WeightStats& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double sum_sq() const { return sum_sq_; }
  /// Kish effective sample size (sum w)^2 / (sum w^2); equals count()
  /// for unit weights, 0 for the empty state.
  [[nodiscard]] double n_eff() const;
  /// Coefficient of variation of the weights; 0 for unit weights.
  [[nodiscard]] double weight_cv() const;
  /// True when any weight has been recorded (a variance-reduced run).
  [[nodiscard]] bool active() const { return count_ > 0; }

 private:
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  std::uint64_t count_ = 0;
};

/// When to stop sampling a point. Precision targets compose with OR --
/// the point is "precise enough" as soon as any enabled rule passes --
/// and the budget bounds bracket them: never stop before `min_samples`,
/// always stop at `max_samples`.
struct StoppingRule {
  /// Stop when the CI half-width is <= this absolute target (0 = off).
  double target_half_width = 0.0;
  /// Stop when the half-width is <= this fraction of |value| (0 = off).
  /// Never fires while the estimate itself is 0 -- pair it with
  /// `stop_below` or `target_half_width` for rare-event metrics.
  double target_relative = 0.0;
  /// Rare-event early stop: the upper confidence bound already cleared
  /// (fell below) this threshold, so the metric is confidently small
  /// and more samples cannot change the verdict (0 = off).
  double stop_below = 0.0;
  std::uint64_t min_samples = 0;
  std::uint64_t max_samples = 0;  ///< 0 = unbounded (a target must be set)

  /// True when any enabled precision target is satisfied by `e`.
  [[nodiscard]] bool precision_met(const Estimate& e) const;
  /// True when at least one of the precision targets is enabled.
  [[nodiscard]] bool has_target() const;
  /// The full decision: budget bounds plus precision targets. With no
  /// target and no max budget this returns true immediately rather
  /// than sampling forever.
  [[nodiscard]] bool should_stop(const Estimate& e) const;
};

}  // namespace oci::analysis
