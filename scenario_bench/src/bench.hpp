// Shared declarations of the scenario benchmark: the workload table,
// the output checks, and the traced per-layer replay.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/scenario/store.hpp"

namespace oci::bench {

/// One named workload: a scenario spec plus the repro scale the
/// benchmark pins for it.
struct Workload {
  std::string name;
  std::string spec_path;  ///< relative to the source-tree root (the working directory)
  double repro_scale = 1.0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument naming the known workloads.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Unsets the environment variables ScenarioRunner::run reads that would
/// change a workload behind the benchmark's back (OCI_SEED,
/// OCI_PRECISION, OCI_MAX_SAMPLES, OCI_REPRO_SCALE, OCI_BATCH_THREADS) and
/// returns the names that were set. Call before starting threads.
[[nodiscard]] std::vector<std::string> clear_ambient_knobs();

/// A workload resolved for running: its spec parsed and validated, the
/// seed and repro scale pinned process-wide.
struct Prepared {
  Workload workload;
  scenario::ScenarioSpec spec;
  std::uint64_t seed = 0;
};

/// Parses the workload's spec, pins the repro scale (`tiny` shrinks it
/// to 0.01) and the seed (`seed`, or the spec's own), and validates.
/// Call before starting threads.
[[nodiscard]] Prepared prepare(const std::string& name, std::optional<std::uint64_t> seed,
                               bool tiny);

/// Bitwise equality: the deterministic-output contract is exact.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runner width: at most 4 and at most the hardware threads.
[[nodiscard]] std::size_t bench_width();

[[nodiscard]] std::uint64_t total_samples(const scenario::RunReport& report);

/// Differences between the deterministic content (coordinates, metrics,
/// samples, chunks, rng_draws) of `report` and `reference`; empty when
/// bit-identical.
[[nodiscard]] std::vector<std::string> compare_deterministic(
    const scenario::RunReport& report, const scenario::RunReport& reference);

/// Crude Monte-Carlo SER of one sweep point's device: the binomial
/// estimate and its standard deviation.
struct CrudeSer {
  std::size_t point_index = 0;
  double ser = 0.0;
  double sd = 0.0;
};

/// Crude SER, by OpticalLink::measure, on the very device that chunk 0
/// of each of the report's reference-jitter points (110 and 120 ps)
/// fabricated. Empty for workloads other than link_rare. Costs about
/// 0.2 s per call, so call it once per seed, outside the timing.
[[nodiscard]] std::vector<CrudeSer> crude_reference(const Prepared& prepared,
                                                    const scenario::RunReport& report,
                                                    std::size_t width);

/// Physics invariants the workload's report must satisfy for any seed;
/// empty when all hold. `crude` is crude_reference() of the same report's
/// seed and is used only by link_rare.
[[nodiscard]] std::vector<std::string> check_invariants(const Prepared& prepared,
                                                        const scenario::RunReport& report,
                                                        const std::vector<CrudeSer>& crude);

/// Sweep point `index` of `base` (first axis slowest), axes applied in
/// axis order like the runner.
[[nodiscard]] scenario::ScenarioSpec point_spec(const scenario::ScenarioSpec& base,
                                                std::size_t index);

/// One timed interval of the traced replay. `work` counts what the call
/// processed (symbols, slots), `draws` the RNG draws it consumed, and
/// `tag` a workload-specific key (the die count of a NoC point).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same point's spans; -1 = root
  std::uint64_t work = 0;
  std::uint64_t draws = 0;
  std::uint64_t tag = 0;
};

/// One sweep point as the replay computed it.
struct ReplayPoint {
  std::size_t point_index = 0;
  std::vector<double> metrics;
  std::uint64_t samples = 0;
  std::uint64_t chunks = 0;
  std::uint64_t rng_draws = 0;
  double weight_sum = 0.0;
  double weight_sum_sq = 0.0;
  std::vector<scenario::ChunkRecord> records;  ///< every chunk, in order
  std::vector<Span> spans;
};

struct ReplayResult {
  std::vector<ReplayPoint> points;
  double wall_s = 0.0;
};

/// Replays the spec's chunk loop from public calls only, with a span
/// around every layer call. Points fan out over `width` threads like
/// ScenarioRunner::run. Throws std::invalid_argument for spec features
/// the replay does not model (faults, aggressors, non-symbol traffic).
[[nodiscard]] ReplayResult replay(const scenario::ScenarioSpec& spec, std::size_t width);

/// Differences between the replay and the untraced report on samples,
/// chunks, metrics and rng_draws; empty when they agree exactly.
[[nodiscard]] std::vector<std::string> compare_replay(const ReplayResult& replay,
                                                      const scenario::RunReport& report);

}  // namespace oci::bench
