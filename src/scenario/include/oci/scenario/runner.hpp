// ScenarioRunner: the one facade that turns a validated ScenarioSpec
// into numbers. It resolves the spec onto the right engine path
// (LinkEngine via OpticalLink, WdmLink, bus::VerticalBus,
// net::StackNetwork -- optionally coupled through
// link::SymbolDeliveryModel), fans the sweep's Cartesian product out
// over a sim::BatchRunner pool with per-point deterministic RNG
// streams, and emits a uniform RunReport: a metric table that
// report_io::save writes as the schema_version-2 BENCH_*.json
// trajectory document the CI diff tooling understands.
//
// Determinism contract: a RunReport's coordinates, metrics, samples and
// rng_draws are a pure function of (spec, resolved seed, repro scale) --
// independent of OCI_BATCH_THREADS -- so ported benches keep the CI
// 1-thread-vs-8-thread bit-identical guarantee. Wall-clock fields are
// the only nondeterministic part and are confined to the JSON export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "oci/analysis/sequential.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/scenario/store.hpp"
#include "oci/sim/batch_runner.hpp"
#include "oci/util/table.hpp"

namespace oci::scenario {

/// Statistical kind of a report metric -- how adaptive chunks merge it
/// and which interval it gets.
enum class MetricKind {
  kRate,      ///< binomial-ish proportion: pooled counts, Wilson interval
  kMean,      ///< batch means over chunks, Wald interval over the spread
  kCount,     ///< extensive total: summed across chunks, no interval
  kConstant,  ///< deterministic at a fixed operating point; no interval
};

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::kMean;
};

/// "rate" / "mean" / "count" / "constant" (BENCH json, merge checks).
[[nodiscard]] const char* to_string(MetricKind k);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] MetricKind metric_kind_from_string(const std::string& name);

/// The metric schema (names + kinds) the spec's topology and traffic
/// mode resolve to -- the contract between the workload's chunk
/// values, the per-metric state, and the report columns.
[[nodiscard]] std::vector<MetricDef> metrics_for(const ScenarioSpec& spec);

/// One metric's pooled state: its kind plus the accumulator that kind
/// needs. Chunks add into it, merge pools it, and every interval
/// estimate is recomputed from it -- never averaged.
struct MetricState {
  explicit MetricState(MetricKind k) : kind(k) {}

  MetricKind kind;
  analysis::RateAccumulator rate;  ///< kRate: pooled successes/trials
  analysis::MeanAccumulator mean;  ///< kMean: batch means over chunks
  double value = 0.0;              ///< kCount: running total; kConstant: last value

  /// Folds one chunk's value, observed over `samples` samples, in.
  void add(double chunk_value, std::uint64_t samples);
  /// Pools another run's state of the same metric in (independent
  /// samples). False when a constant disagrees: the runs are not the
  /// same experiment.
  [[nodiscard]] bool merge(const MetricState& other);
  /// Rate: Wilson; mean: Wald over batch means; count and constant: a
  /// zero-width interval over the point's `samples`.
  [[nodiscard]] analysis::Estimate estimate(double z, std::uint64_t samples) const;
};

/// One sweep point's outcome.
struct RunPoint {
  /// GLOBAL index in the sweep's Cartesian product. Stable across
  /// shards -- shard i of N reports points {i, i+N, ...} -- so merge
  /// can interleave partial reports back into the full sweep order.
  std::size_t point_index = 0;
  /// Printable axis values, aligned with RunReport::axis_names.
  std::vector<std::string> coordinate;
  /// Metric values, aligned with RunReport::metric_names.
  std::vector<double> metrics;
  /// Interval estimates aligned with metrics: {value, ci_low, ci_high,
  /// n_samples} for every metric. value always equals metrics[m];
  /// constant-kind metrics carry a zero-width interval.
  std::vector<analysis::Estimate> estimates;
  /// Per-metric pooled state, aligned with metrics. This is what merge
  /// pools; refresh() derives estimates and metrics from it.
  std::vector<MetricState> state;
  /// Likelihood-ratio weight state of a rare-event point (variance.kind
  /// != none): per-sample weight sum / sum-of-squares for n_eff and
  /// weight-CV diagnostics. Inactive (count == 0) on crude-MC points.
  /// Pooled on merge like the metric state above.
  analysis::WeightStats weights;
  /// sum over samples of (weight x ser-error indicator)^2 -- the second
  /// moment behind the weighted-estimator variance diagnostic.
  double err_weight_sq = 0.0;
  std::uint64_t samples = 0;    ///< symbols/transfers/slots/hits run
  std::uint64_t chunks = 1;     ///< adaptive chunks spent (1 = fixed budget)
  std::uint64_t rng_draws = 0;  ///< RNG draws consumed by this point
  double wall_ns = 0.0;         ///< wall clock of the point's task

  /// "jitter_ps=120/fec=hamming", or "-" for a sweep-less scenario.
  [[nodiscard]] std::string label(const std::vector<std::string>& axis_names) const;
  /// Recomputes estimates and metrics from state at confidence `z`.
  void refresh(double z);
};

/// Uniform result document of one scenario run (or of one shard of a
/// run; see shard/points_total).
struct RunReport {
  std::string scenario;
  std::string description;
  std::uint64_t seed = 0;
  double repro_scale = 1.0;
  std::string topology;
  bool adaptive = false;  ///< ran under a PrecisionSpec stopping rule
  /// serialize.hpp's content hash of the resolved spec. Merge refuses
  /// to fold reports whose hashes differ -- they are different
  /// experiments even if their names match.
  std::string spec_hash;
  /// z-score of every interval estimate (merge recomputes pooled
  /// intervals with it).
  double confidence_z = 1.96;
  /// Shard this report covers; {0, 1} = the full sweep.
  ShardSpec shard;
  /// Size of the FULL sweep's Cartesian product (== points.size() for
  /// an unsharded run; larger for a shard's partial report).
  std::size_t points_total = 0;
  /// Result-store traffic of this run: chunks served from the cache vs
  /// simulated, plus chunks whose persist FAILED (full disk, read-only
  /// cache) and will be re-simulated by the next run. Informational
  /// (never part of deterministic output).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_save_failures = 0;
  /// Sweep points whose hardware this run realised: one per point that
  /// simulated a chunk, none for a point served wholly from the cache
  /// (and none on the code-density path, whose one chunk builds its own
  /// delay line). Informational, like the cache counters.
  std::uint64_t points_realised = 0;
  /// kEngineRevision of the engine that simulated the report (0: read
  /// from a document written before the field existed). Exported in
  /// the JSON "meta" object; bench_diff re-baselines when it changes.
  unsigned engine_revision = 0;
  /// Worker threads the run actually used. Metadata only (exported in
  /// the BENCH json "meta" object); results never depend on it.
  std::size_t threads = 0;
  std::vector<std::string> axis_names;
  std::vector<std::string> metric_names;
  /// Statistical kind per metric, aligned with metric_names.
  std::vector<MetricKind> metric_kinds;
  std::vector<RunPoint> points;

  /// Point whose label(axis_names) matches; nullptr when absent.
  [[nodiscard]] const RunPoint* find(const std::string& label) const;
  /// Metric by name; throws std::out_of_range for unknown names.
  [[nodiscard]] double metric(const RunPoint& point, const std::string& name) const;
  /// Full interval estimate by name; throws std::out_of_range.
  [[nodiscard]] const analysis::Estimate& estimate(const RunPoint& point,
                                                   const std::string& name) const;

  /// Axis columns then metric columns, one row per point, numbers to
  /// four digits.
  [[nodiscard]] util::Table to_table() const;
  /// Table plus a one-line run summary (deterministic output only).
  void print(std::ostream& os) const;
};

/// Execution options of one ScenarioRunner::run call.
struct RunOptions {
  /// Result store consulted before simulating each chunk and fed every
  /// finished one; nullptr = no cache (NullResultStore semantics).
  /// Borrowed -- must outlive the run() call.
  const ResultStore* store = nullptr;
  /// Sweep partition to execute; {0, 1} = the full sweep.
  ShardSpec shard;
};

class ScenarioRunner {
 public:
  /// `threads` as in sim::BatchConfig (0 = hardware concurrency,
  /// OCI_BATCH_THREADS overrides). The spec's resolved seed roots the
  /// per-point RNG streams, so one runner serves many specs.
  explicit ScenarioRunner(std::size_t threads = 0) : threads_(threads) {}

  /// Validates and executes the spec. Seed precedence: OCI_SEED (when
  /// set to an unsigned integer) overrides spec.seed, so one
  /// environment knob re-seeds every scenario-driven binary uniformly.
  [[nodiscard]] RunReport run(const ScenarioSpec& spec) const;

  /// Same, with a result store and/or shard. Per-point RNG streams are
  /// derived from GLOBAL sweep indices, so a shard's points (and its
  /// cached chunks) are bit-identical to the same points of a full run.
  [[nodiscard]] RunReport run(const ScenarioSpec& spec, const RunOptions& options) const;

 private:
  std::size_t threads_;
};

// The seed/precision override helpers (seed_from_env, consume_seed_arg,
// resolve_seed, consume_precision_args, ...) moved to
// oci/scenario/cli.hpp, included above so existing callers keep
// compiling unchanged.

}  // namespace oci::scenario
