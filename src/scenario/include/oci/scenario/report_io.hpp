// Schema-v2 BENCH report document I/O: the ONE serializer for scenario
// trajectory documents. save() writes the stable shape
// tools/bench_diff.py consumes and gates on; load() parses a saved
// document back into a RunReport -- including the per-metric
// accumulator state -- so partial (shard) reports round-trip through
// disk and merge exactly.
//
// The document stays schema_version 2: every service-era addition
// (spec_hash, point_index, coordinate, accumulator state) is additive,
// and bench_diff ignores keys it does not know, so existing CI
// trajectories keep diffing cleanly.
#pragma once

#include <string>

namespace oci::scenario {

struct RunReport;

namespace report_io {

/// Writes `report` as a schema-v2 BENCH json document. Numbers carry 17
/// significant digits so every double survives the text round trip
/// bit-exactly (load(save(r)) == r for the numeric state).
void save(const RunReport& report, const std::string& path);

/// Parses a document save() wrote. Throws std::runtime_error naming the
/// path and the defect for unreadable files, non-schema-2 documents, or
/// missing required fields -- including a metric's `kind` and that
/// kind's accumulator state, which merge pools and load never invents.
/// Lenient toward other ABSENT service-era fields (they load with
/// defaults) but strict about malformed ones.
[[nodiscard]] RunReport load(const std::string& path);

}  // namespace report_io

}  // namespace oci::scenario
