// The content hash behind the result store (store.hpp). spec_hash is
// the SHA-256 of canonical_spec_text (spec.hpp), which the spec table
// renders from EVERY semantic field of a ScenarioSpec -- device,
// traffic, sweep axes, budgets, precision rule, ambient repro scale --
// as a fixed-order "name = value" listing. Two specs share a hash
// exactly when the runner would execute the same simulation chunks for
// them, so cached chunks keyed by (spec_hash, seed, point, chunk) are
// bit-identical to recomputation.
//
// Deliberately EXCLUDED from the canonical text (table rows with a key
// but no canonical name):
//  - seed: part of the store key itself, so one spec's cache serves
//    every seed, and cross-seed partial reports can assert they pool
//    the same experiment by comparing hashes.
//  - description: pure prose; it feeds no RNG stream and no budget.
// The scenario NAME is included -- it salts the per-point RNG labels
// ("scenario:<name>"), so renaming a scenario genuinely changes the
// sampled streams.
//
// The hash covers the spec, not the binary: after a code change that
// alters simulation semantics, stale caches must be invalidated by key
// (CI uses per-commit cache keys) or age (cache-gc).
#pragma once

#include <string>
#include <string_view>

#include "oci/scenario/spec.hpp"

namespace oci::scenario {

/// 64-hex-digit SHA-256 of canonical_spec_text(spec).
[[nodiscard]] std::string spec_hash(const ScenarioSpec& spec);

/// SHA-256 of arbitrary bytes as 64 hex digits (exposed for tests and
/// for hashing canonical text directly).
[[nodiscard]] std::string sha256_hex(std::string_view data);

}  // namespace oci::scenario
