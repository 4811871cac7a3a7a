// Shared CLI/environment override helpers for every scenario-aware
// binary (tools/run_scenario, the ported abl_* benches, the examples).
// One precedence story for every knob: CLI flag beats environment
// variable beats the spec's own value. Consumed flags are REMOVED from
// argv (so leftover args can go to other parsers) and remembered for
// every later resolution in the process -- the seed through an explicit
// in-process override (set_seed_override), precision/cache knobs by
// re-export as their environment variable. Call these from main()
// before spawning threads.
//
// Parsing is strict where silence would be dangerous: a garbled value
// for an explicitly given flag throws std::invalid_argument naming the
// flag, while a garbled environment variable reads as unset (an
// environment is shared state; a flag is an explicit request).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "oci/scenario/spec.hpp"

namespace oci::scenario {

/// -- Seed override helpers -------------------------------------------
/// OCI_SEED parsed as an unsigned integer; nullopt when unset/garbled.
[[nodiscard]] std::optional<std::uint64_t> seed_from_env();

/// Process-wide resolved-seed override, consulted FIRST by
/// resolve_seed(). consume_seed_arg installs the consumed CLI value
/// here, which is how "--seed beats OCI_SEED" holds for every later
/// resolution in the process -- including ScenarioRunner::run()'s own
/// re-resolution. (It used to be re-exported as OCI_SEED instead; that
/// mutated shared environment state, leaked the override into child
/// processes, and could serve a STALE seed to anything reading the
/// variable concurrently.) nullopt clears the override. Call from
/// main(), before spawning threads.
void set_seed_override(std::optional<std::uint64_t> seed);
[[nodiscard]] std::optional<std::uint64_t> seed_override();

/// Scans argv for --seed=N (or --seed N), REMOVES it so the remaining
/// args can go to benchmark::Initialize, installs the value via
/// set_seed_override, and returns it.
[[nodiscard]] std::optional<std::uint64_t> consume_seed_arg(int& argc, char** argv);

/// The seed every scenario-aware binary runs with:
/// consumed --seed= beats OCI_SEED beats the built-in fallback.
[[nodiscard]] std::uint64_t resolve_seed(std::uint64_t fallback);
[[nodiscard]] std::uint64_t resolve_seed(std::uint64_t fallback, int& argc, char** argv);

/// -- Precision override helpers --------------------------------------
/// Same precedence story as seeds: CLI beats environment beats spec.
/// OCI_PRECISION (positive double) forces an absolute CI half-width
/// target -- arming adaptive mode even for specs without a
/// PrecisionSpec -- and OCI_MAX_SAMPLES (positive integer) caps the
/// per-point adaptive budget. Both parsed strictly; garbled values
/// read as unset.
[[nodiscard]] std::optional<double> precision_from_env();
[[nodiscard]] std::optional<std::uint64_t> max_samples_from_env();

/// Scans argv for --precision=H and --max-samples=N (= or split form),
/// REMOVES them, and exports consumed values as OCI_PRECISION /
/// OCI_MAX_SAMPLES so every later ScenarioRunner::run in the process
/// sees them (call from main() before spawning threads). Unlike the
/// forgiving seed parser, a garbled value throws std::invalid_argument
/// -- an explicit precision override must never be silently ignored.
void consume_precision_args(int& argc, char** argv);

/// Applies the environment overrides to spec.precision in place:
/// OCI_PRECISION sets target_half_width and enables adaptive mode
/// (except for code-density traffic, which cannot chunk);
/// OCI_MAX_SAMPLES caps max_samples. ScenarioRunner::run calls this --
/// exposed for tools that want to inspect the resolved spec.
void apply_precision_overrides(ScenarioSpec& spec);

/// -- Shard helpers ----------------------------------------------------
/// Deterministic partition of a sweep's Cartesian product: shard i of N
/// owns every global point index g with g % count == index. Round-robin
/// (not contiguous blocks) so adjacent sweep points -- typically the
/// expensive knee region -- spread evenly across shards.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// True when this spec actually partitions (count > 1).
  [[nodiscard]] bool active() const { return count > 1; }
};

/// Parses "i/N" (e.g. "0/2"). Throws std::invalid_argument naming
/// --shard for garbled text, count == 0, or index >= count.
[[nodiscard]] ShardSpec parse_shard(const std::string& text);

/// Scans argv for --shard=i/N, REMOVES it, and returns the parsed spec;
/// nullopt when absent. A garbled value throws (strict, like
/// consume_precision_args).
[[nodiscard]] std::optional<ShardSpec> consume_shard_arg(int& argc, char** argv);

/// -- Result cache ----------------------------------------------------
/// Directory of the content-addressed result store (store.hpp):
/// --cache=DIR (or --cache DIR) beats OCI_SCENARIO_CACHE beats "no
/// cache" (nullopt). The flag is removed from argv and exported as
/// OCI_SCENARIO_CACHE; an empty DIR throws, an empty variable is no cache.
[[nodiscard]] std::optional<std::string> resolve_cache_dir(int& argc, char** argv);

}  // namespace oci::scenario
