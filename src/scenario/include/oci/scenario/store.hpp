// Content-addressed on-disk result store: the persistence half of the
// scenario service. A chunk -- one map_until step of one sweep point --
// is a pure function of (spec_hash, seed, point index, chunk index)
// given the code version, so a stored chunk is bit-identical to
// recomputing it. ScenarioRunner consults the store before simulating
// each chunk and persists every finished one, which yields:
//  - warm-cache runs that do zero simulation,
//  - checkpoint/resume of killed sweeps for free (finished chunks are
//    already on disk; the restart recomputes only the tail),
//  - shards that later merge into exactly the unsharded report.
//
// The store trusts its key for SPEC changes (spec_hash re-keys those),
// but a key cannot see code changes that alter simulation semantics.
// Those are versioned explicitly: kEngineRevision below is baked into
// every on-disk path, and any PR that changes simulated numbers for an
// unchanged spec MUST bump it. A bump turns the whole warm cache into
// misses; cache_gc reclaims the dead revisions' space.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace oci::scenario {

/// Simulation-semantics revision of the engines the runner dispatches
/// to. Part of every FsResultStore path (<root>/r<revision>/...), so
/// results simulated by older code can never be served as current.
/// Bump whenever a code change alters the numbers a spec produces:
///   1  seed: per-symbol mt19937 engine paths
///   2  batched SoA/SIMD window engine (counter-RNG lanes; the symbol
///      path's draw sequence and rng_draws accounting changed)
///   3  fault-injection subsystem (FaultSpec in the canonical text; the
///      p2p symbol path grew a recalibrations metric column)
///   4  rare-event subsystem (variance.* in the canonical text; chunk
///      records grew likelihood-ratio weight state)
///   5  CAC MAC + distributed slot/wavelength allocation (noc.alloc_*
///      in the canonical text; new incast/broadcast-storm patterns;
///      the NoC slot loop arbitrates through structured SlotOutcomes)
///   6  one window simulator: per-symbol windows (transmit_symbol) and
///      training probes run the counter-RNG kernel lane instead of an
///      mt19937 copy, so every calibrated link's detection offset and
///      every per-symbol path moves within sampling noise; rare-event
///      and WDM chunks, and a fault point's retraining, count their
///      lane draws in rng_draws
///   7  exact code-density calibration: the histogram is drawn from the
///      code distribution as one binomial per code instead of hit by
///      hit, so every calibrated link's LUT and detection offset, and
///      code-density traffic, move within sampling noise
///   8  hardware realised once per sweep point from chunk 0's stream:
///      every chunk of a multi-chunk point measures chunk 0's device
///      (p2p, WDM, NoC PHY and fec probe, CAC schedule) instead of one
///      of its own; a point's fault draws, realisation draws and
///      retrains land on chunk 0 once; frames and the engine-coupled
///      NoC count their kernel-lane draws
///   9  NoC arrivals by Poisson superposition: one aggregate count per
///      slot, one uniform per arrival picks its source, so every NoC
///      point's run stream moves while per-die counts stay independent
///      Poisson(rate); vertical-bus points count each die's process,
///      symbol-pick and receive draws (they reported 0)
///  10  one window driver: every window is lane j of one
///      (root, "engine-windows") family per driver call -- training
///      probes as one kernel batch, dark/flaky, aggressor, rare-event,
///      WDM and bus windows through the batched driver's per-window
///      inputs -- so lane keys and the TDC coins' order move every
///      calibrated link's trained offset and every formerly per-window
///      path within sampling noise; the bus realises its receivers once
///      per point and draws its symbols from the chunk's "mc" stream
///  11  one symbol, one lane: under active quench a fired pulse source
///      restarts at the dead-time horizon instead of drawing a
///      candidate the fast-forward discards, a conversion's racing-tap
///      coins continue its window's lane, and the training positions
///      come from a counter stream of their own, so every active-quench
///      window and every calibrated link's trained offset move within
///      sampling noise and rng_draws count the coins
inline constexpr unsigned kEngineRevision = 11;

/// Address of one simulation chunk.
struct ChunkKey {
  std::string spec_hash;    ///< serialize.hpp's spec_hash(spec)
  std::uint64_t seed = 0;   ///< resolved root seed of the run
  std::size_t point = 0;    ///< GLOBAL sweep point index (shard-independent)
  std::size_t chunk = 0;    ///< chunk ordinal within the point
};

/// One chunk's raw outcome: what its workload's chunk function returned.
struct ChunkRecord {
  std::uint64_t samples = 0;    ///< samples this chunk actually ran
  std::uint64_t rng_draws = 0;  ///< RNG draws the chunk consumed
  std::vector<double> metrics;  ///< per-metric chunk values, schema order
  /// Likelihood-ratio weight state of a rare-event chunk (variance.kind
  /// != none): sum/sum-of-squares of per-sample weights plus the
  /// squared-weight mass on SER-error samples (variance diagnostics).
  /// All zero for crude-MC chunks; pooled, never averaged, on merge.
  double weight_sum = 0.0;
  double weight_sum_sq = 0.0;
  double err_weight_sq = 0.0;
};

/// Storage interface consulted by ScenarioRunner. Implementations must
/// be safe for concurrent load/save from the runner's worker threads
/// (distinct keys; the runner never races one key).
class ResultStore {
 public:
  virtual ~ResultStore() = default;

  /// The stored record, or nullopt on miss (absent, unreadable, or
  /// corrupt -- a bad entry reads as a miss, never as data).
  [[nodiscard]] virtual std::optional<ChunkRecord> load(const ChunkKey& key) const = 0;

  /// Persists `record` under `key` (overwrites). Returns false when the
  /// entry could not be written; the run degrades to uncached (a full
  /// disk never fails a sweep) but the runner COUNTS the failures and
  /// surfaces them in the report, so a silently cold cache is visible.
  virtual bool save(const ChunkKey& key, const ChunkRecord& record) const = 0;
};

/// No-op backend: every load misses, saves vanish. The runner's default.
class NullResultStore final : public ResultStore {
 public:
  [[nodiscard]] std::optional<ChunkRecord> load(const ChunkKey&) const override {
    return std::nullopt;
  }
  bool save(const ChunkKey&, const ChunkRecord&) const override { return true; }
};

/// Filesystem backend. Layout:
///   <root>/r<kEngineRevision>/<spec_hash>/seed<seed>/p<point>.c<chunk>
/// One small text file per chunk, written atomically (temp file +
/// rename) so a killed run never leaves a torn entry behind.
class FsResultStore final : public ResultStore {
 public:
  /// Creates <root> (and parents) eagerly so a misconfigured path fails
  /// loudly at startup, not silently per chunk. Throws std::runtime_error
  /// when the directory cannot be created.
  explicit FsResultStore(std::string root);

  [[nodiscard]] const std::string& root() const { return root_; }

  [[nodiscard]] std::optional<ChunkRecord> load(const ChunkKey& key) const override;
  bool save(const ChunkKey& key, const ChunkRecord& record) const override;

  /// On-disk path of a key (exposed for tests and cache tooling).
  [[nodiscard]] std::string path_of(const ChunkKey& key) const;

 private:
  std::string root_;
};

/// Outcome of a cache_gc sweep.
struct GcReport {
  std::size_t scanned = 0;        ///< chunk files examined
  std::size_t removed = 0;        ///< files deleted (or would-be, dry run)
  std::size_t kept = 0;
  std::uintmax_t bytes_freed = 0; ///< total size of removed files
};

/// Deletes chunk files older than `max_age_days` (by last write time)
/// under `root`, pruning directories that become empty. Top-level
/// entries belonging to DEAD engine revisions -- any r<N> directory
/// with N != kEngineRevision, and pre-revision legacy layouts -- are
/// removed wholesale regardless of age: no running binary can ever
/// read them again. `dry_run` reports without deleting. A missing root
/// yields an all-zero report. A NaN or negative `max_age_days` throws
/// std::invalid_argument; an age no file can reach (+inf included)
/// removes nothing by age.
[[nodiscard]] GcReport cache_gc(const std::string& root, double max_age_days,
                                bool dry_run = false);

}  // namespace oci::scenario
