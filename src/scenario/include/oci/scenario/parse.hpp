// Text format for ScenarioSpec: a flat key = value file (JSON-lite --
// no nesting, no quoting) so new experiments need zero recompilation.
//
//   # one comment per line
//   name        = link_jitter
//   topology    = point-to-point
//   seed        = 20260726
//   jitter_ps   = 120            # any key of the spec table
//   samples     = 4000
//   sweep.jitter_ps = 40, 80, 120, 160        # list axis
//   sweep.offered_load = linear(0.2, 1.2, 6)  # linear(lo, hi, n)
//   sweep.channels = log(1, 16, 5)            # log(lo, hi, n)
//   sweep.mac = tdma, token, aloha            # categorical axis
//
// Scalar keys go through scenario::set_param (one spec table, spec.hpp,
// for files, sweeps, and code); `sweep.<key>` lines append an axis.
// Axes sweep in file order, first line slowest. Parse errors throw
// std::runtime_error naming the line number.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "oci/scenario/spec.hpp"

namespace oci::scenario {

/// Parses a spec from a stream. `source` names the stream in errors.
[[nodiscard]] ScenarioSpec parse_spec(std::istream& in, const std::string& source = "spec");

/// Loads and parses a spec file; throws std::runtime_error when the
/// file cannot be opened.
[[nodiscard]] ScenarioSpec parse_spec_file(const std::string& path);

/// Strict unsigned decimal for text that comes from outside the process
/// (spec seeds, CLI flags, environment variables, cache entries, report
/// documents): digits only, with no sign, no whitespace, nothing
/// trailing and no overflow. nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text);

}  // namespace oci::scenario
