// Stable-schema bench-trajectory export.
//
// Google Benchmark's own --benchmark_out JSON embeds run metadata
// (host, caches, load average) that churns on every run, which makes
// artifact diffs useless as a trajectory. This reporter keeps the
// normal console output and additionally writes a minimal,
// diff-friendly document next to the working directory (CI runs the
// binaries from the repo root, so BENCH_link.json / BENCH_network.json
// land there):
//
//   {
//     "schema_version": 1,
//     "binary": "bench_link_engine",
//     "config": { "repro_scale": 1.0 },
//     "results": [
//       { "name": "BM_EngineMeasure", "ns_per_op": 347.1,
//         "iterations": 2048000, "rng_draws_per_op": 5.2 },
//       ...
//     ]
//   }
//
// `rng_draws_per_op` appears when the benchmark reported an
// `rng_draws` counter (Counter::kAvgIterations) -- a deterministic,
// compiler-independent cost metric that complements the noisy wall
// clock. Aggregate rows (mean/median/stddev) and errored runs are
// skipped so the result list is one row per benchmark instance.
//
// The console rows are coloured only when stdout is a terminal, as the
// library's own reporter does under its default --benchmark_color=auto;
// a custom reporter never sees that flag, so this one does not read it.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "oci/analysis/report.hpp"

namespace oci::benchsupport {

namespace detail {
// Google Benchmark 1.8 replaced Run::error_occurred with the Skipped
// state; probe for the old member so this header compiles against both
// the 1.7 the container ships and the 1.8+ CI installs. A skipped/
// errored run is absent from the trajectory either way (1.8 hands
// errored runs a zeroed time, which the diff tool treats as noise).
template <typename R>
auto run_errored(const R& run, int) -> decltype(run.error_occurred) {
  return run.error_occurred;
}
template <typename R>
bool run_errored(const R&, long) {
  return false;
}
}  // namespace detail

class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    std::int64_t iterations = 0;
    double rng_draws_per_op = 0.0;
    bool has_draws = false;
  };

  TrajectoryReporter()
      : ConsoleReporter(isatty(STDOUT_FILENO) != 0 ? OO_ColorTabular : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || detail::run_errored(run, 0)) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.ns_per_op = to_nanoseconds(run.GetAdjustedRealTime(), run.time_unit);
      e.iterations = static_cast<std::int64_t>(run.iterations);
      const auto draws = run.counters.find("rng_draws");
      if (draws != run.counters.end()) {
        e.rng_draws_per_op = draws->second.value;
        e.has_draws = true;
      }
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  static double to_nanoseconds(double t, benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond:
        return t;
      case benchmark::kMicrosecond:
        return t * 1e3;
      case benchmark::kMillisecond:
        return t * 1e6;
      case benchmark::kSecond:
        return t * 1e9;
    }
    return t;
  }

  std::vector<Entry> entries_;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes the document to `path`; false (with the path named on
/// stderr) when it could not be opened, written or flushed.
inline bool write_trajectory(const std::string& path, const std::string& binary,
                             const std::vector<TrajectoryReporter::Entry>& entries) {
  std::ofstream os(path);
  os << std::setprecision(12);
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"binary\": \"" << json_escape(binary) << "\",\n";
  os << "  \"config\": { \"repro_scale\": " << analysis::repro_scale() << " },\n";
  os << "  \"results\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    { \"name\": \"" << json_escape(e.name) << "\", \"ns_per_op\": "
       << e.ns_per_op << ", \"iterations\": " << e.iterations;
    if (e.has_draws) os << ", \"rng_draws_per_op\": " << e.rng_draws_per_op;
    os << " }";
  }
  os << "\n  ]\n}\n";
  os.close();  // flushes the buffer: a full device shows here at the latest
  if (os.fail()) {
    std::cerr << "bench_json: could not write " << path << "\n";
    return false;
  }
  return true;
}

/// Drop-in BENCHMARK_MAIN() body: runs the selected benchmarks with
/// the trajectory reporter and writes `out_path` on the way out, when
/// at least one ran (a tables-only run, --benchmark_filter=__none__,
/// leaves an earlier document alone). Exits 1 when that write fails,
/// so no caller mistakes a stale document for this run's.
inline int run_and_export(int argc, char** argv, const std::string& binary,
                          const std::string& out_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TrajectoryReporter reporter;
  if (benchmark::RunSpecifiedBenchmarks(&reporter) > 0 &&
      !write_trajectory(out_path, binary, reporter.entries())) {
    return 1;
  }
  return 0;
}

}  // namespace oci::benchsupport
