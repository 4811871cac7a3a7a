// scenario_bench: runs one named workload in-process through
// scenario::ScenarioRunner::run, checks every repetition, and prints the
// end-to-end metrics; with --trace 1 it instead replays the workload's
// chunk loop with a span around each layer call and prints the
// per-layer metrics. The last stdout line is one JSON object that
// run.py folds into the benchmark result. See README.md.
//
//   scenario_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--tiny] [--selftest]
//
// Run it from the source-tree root: specs are read and scratch files
// written (under .bench_build/) relative to the working directory.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "oci/link/kernels.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/scenario/merge.hpp"
#include "oci/scenario/report_io.hpp"

namespace {

using namespace oci;
using bench::Prepared;
using bench::Span;
using scenario::RunReport;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double steady_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds, all threads.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Metric table for humans plus the machine-readable last line.
void emit(const std::vector<Metric>& metrics, std::size_t attempted, std::size_t failed,
          const std::map<std::string, std::string>& env) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"env\": {";
  bool first = true;
  for (const auto& [k, v] : env) {
    line += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  line += "}, \"metrics\": {";
  first = true;
  for (const Metric& m : metrics) {
    line += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

std::map<std::string, std::string> run_environment(std::size_t width,
                                                   const std::vector<std::string>& cleared) {
  const char* force_scalar = std::getenv("OCI_FORCE_SCALAR");
  std::string cleared_list;
  for (const std::string& knob : cleared) {
    cleared_list += (cleared_list.empty() ? "" : ",") + knob;
  }
  return {{"kernel", link::kernels::active_kernels().name},
          {"OCI_FORCE_SCALAR", force_scalar != nullptr ? force_scalar : "unset"},
          {"cleared_knobs", cleared_list},
          {"width", std::to_string(width)},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"compiler", OCI_BENCH_COMPILER},
          {"build_type", OCI_BENCH_BUILD_TYPE}};
}

/// Set-ups per batch: one batch at start and one before each timed
/// repetition.
constexpr int kSetupReps = 21;

/// Times the benchmark's set-up: spec parse and validate() in prepare(),
/// then kernel dispatch. BatchRunner starts its threads inside every
/// call, so there is no pool to start.
struct SetupTimer {
  const Args& args;
  std::vector<double> batch_medians;

  /// One batch of `n` set-ups back to back, the first timed from
  /// `since`; returns the last one's result.
  Prepared run(int n, double since) {
    Prepared p;
    std::vector<double> seconds;
    for (int k = 0; k < n; ++k) {
      p = bench::prepare(args.workload, args.seed, args.tiny);
      (void)link::kernels::active_kernels();
      const double now = steady_s();
      seconds.push_back(now - since);
      since = now;
    }
    batch_medians.push_back(median(seconds));
    return p;
  }

  /// The mean of the batch medians. On a shared host one batch runs
  /// fast or about 1.6x slower, depending on what the machine does at
  /// that second; the median of all set-ups would jump between the two,
  /// the mean moves with their mix.
  [[nodiscard]] double setup_s() const {
    double sum = 0.0;
    for (const double m : batch_medians) sum += m;
    return sum / static_cast<double>(batch_medians.size());
  }
};

/// Spec seeds one run cycles through: the run's seed s0, then strides of
/// a prime so different runs' seed sets do not overlap. Timing medians
/// then span many realisations of a workload whose size depends on the
/// seed (adaptive stopping), not one.
constexpr std::uint64_t kSeedsPerRun = 32;
constexpr std::uint64_t kSeedStride = 1000003;

/// Checked, timed ScenarioRunner::run repetitions over the seeds s0, s0,
/// s1, ..., s31, s0, s1, ... Each repetition must be bit-identical to the
/// first repetition of its seed; the second s0 run is always checked.
struct Repetitions {
  std::uint64_t base_seed = 0;
  std::vector<double> wall_s;
  double total_wall_s = 0.0;
  double total_cpu_s = 0.0;
  double total_samples = 0.0;
  double first_peak_rss_mib = 0.0;
  std::vector<double> base_wall_s;  ///< walls of the base seed's repetitions
  std::map<std::uint64_t, RunReport> first;  ///< per seed, for the identity check
  /// Per seed, the crude reference of link_rare's tilt check.
  std::map<std::uint64_t, std::vector<bench::CrudeSer>> crude;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void run_one(const Prepared& p, const scenario::ScenarioRunner& runner, std::size_t width) {
    const std::uint64_t k = attempted == 0 ? 0 : (attempted - 1) % kSeedsPerRun;
    const std::uint64_t seed = base_seed + k * kSeedStride;
    ++attempted;
    try {
      scenario::set_seed_override(seed);
      const double c0 = process_cpu_s();
      const double t0 = steady_s();
      RunReport report = runner.run(p.spec);
      const double wall = steady_s() - t0;
      const double cpu = process_cpu_s() - c0;
      if (wall_s.empty()) first_peak_rss_mib = peak_rss_mib();
      if (!crude.contains(seed)) crude[seed] = bench::crude_reference(p, report, width);
      std::vector<std::string> problems = bench::check_invariants(p, report, crude[seed]);
      if (const auto it = first.find(seed); it != first.end()) {
        for (std::string& d : bench::compare_deterministic(report, it->second)) {
          problems.push_back(std::move(d));
        }
      }
      for (const std::string& problem : problems) {
        std::cerr << "check failed (seed " << seed << "): " << problem << "\n";
      }
      if (!problems.empty()) ++failed;
      wall_s.push_back(wall);
      total_wall_s += wall;
      total_cpu_s += cpu;
      total_samples += static_cast<double>(bench::total_samples(report));
      if (seed == base_seed) base_wall_s.push_back(wall);
      first.emplace(seed, std::move(report));
    } catch (const std::exception& e) {
      std::cerr << "repetition failed (seed " << seed << "): " << e.what() << "\n";
      ++failed;
    }
    scenario::set_seed_override(base_seed);
  }

  /// Runs until `seconds` have passed since `start` and at least
  /// `min_reps` repetitions are done.
  void run_for(const Prepared& p, const scenario::ScenarioRunner& runner, std::size_t width,
               double start, double seconds, std::size_t min_reps) {
    while (attempted < min_reps || steady_s() - start < seconds) run_one(p, runner, width);
  }
};

// --- Per-layer aggregation ------------------------------------------------

/// Totals of one span name over a replay.
struct LayerTotal {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t work = 0;
  std::uint64_t draws = 0;
};

double duration_ns(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns); }

/// Per span of one point: the summed duration of its direct children.
/// A span's self time is its duration minus this.
std::vector<double> child_ns(const std::vector<Span>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) out[static_cast<std::size_t>(s.parent)] += duration_ns(s);
  }
  return out;
}

/// Totals keyed by span name, and by "name/tag" for tagged spans.
std::map<std::string, LayerTotal> layer_totals(const bench::ReplayResult& r) {
  std::map<std::string, LayerTotal> out;
  for (const bench::ReplayPoint& p : r.points) {
    const std::vector<double> children = child_ns(p.spans);
    for (std::size_t k = 0; k < p.spans.size(); ++k) {
      const Span& s = p.spans[k];
      std::vector<std::string> keys = {s.name};
      if (s.tag != 0) keys.push_back(std::string(s.name) + "/" + std::to_string(s.tag));
      for (const std::string& key : keys) {
        LayerTotal& t = out[key];
        ++t.calls;
        t.total_ns += duration_ns(s);
        t.self_ns += duration_ns(s) - children[k];
        t.work += s.work;
        t.draws += s.draws;
      }
    }
  }
  return out;
}

void write_spans(const std::string& path, const Prepared& p, const bench::ReplayResult& r) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\"workload\": " << json_string(p.workload.name) << ", \"seed\": " << p.seed
     << ", \"spans\": [\n";
  bool first = true;
  for (const bench::ReplayPoint& pt : r.points) {
    const std::vector<double> children = child_ns(pt.spans);
    for (std::size_t k = 0; k < pt.spans.size(); ++k) {
      const Span& s = pt.spans[k];
      os << (first ? "" : ",\n") << "{\"point\": " << pt.point_index << ", \"id\": " << k
         << ", \"parent\": " << s.parent << ", \"name\": " << json_string(s.name)
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"self_ns\": " << json_number(duration_ns(s) - children[k])
         << ", \"work\": " << s.work << ", \"draws\": " << s.draws << ", \"tag\": " << s.tag
         << "}";
      first = false;
    }
  }
  os << "\n]}\n";
}

void print_layer_table(const std::map<std::string, LayerTotal>& totals, double work_ns,
                       const std::vector<std::string>& disagreements) {
  if (!disagreements.empty()) {
    std::printf("per-layer table: STALE -- the replay disagrees with the RunReport:\n");
    for (const std::string& d : disagreements) std::printf("  %s\n", d.c_str());
  } else {
    std::printf("per-layer table (replay agrees with the RunReport):\n");
  }
  std::printf("  %-24s %8s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms",
              "self%");
  for (const auto& [name, t] : totals) {
    if (name.find('/') != std::string::npos) continue;
    std::printf("  %-24s %8llu %12.3f %12.3f %6.1f%%%s\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_ns * 1e-6, t.self_ns * 1e-6,
                100.0 * ratio(t.self_ns, work_ns), disagreements.empty() ? "" : " stale");
  }
}

/// Median seconds of `reps` calls of fn.
double time_median_s(int reps, const std::function<void()>& fn) {
  std::vector<double> v;
  for (int k = 0; k < reps; ++k) {
    const double t0 = steady_s();
    fn();
    v.push_back(steady_s() - t0);
  }
  return median(v);
}

/// ns per window of the dispatched batched kernel on the device of the
/// workload's first sweep point.
double kernel_ns_per_window(const scenario::ScenarioSpec& point) {
  util::RngStream process(point.seed, "bench-kernel-device");
  const link::OpticalLink link(point.device, process);
  const link::LinkEngine engine(link);
  const util::BatchRngStream lanes(point.seed, "bench-kernel-lanes");
  link::EngineBatchScratch scratch;
  std::vector<link::WindowResult> staged(link::LinkEngine::kEngineBatch);
  const std::uint64_t slots = link.ppm().slot_count();
  for (std::size_t i = 0; i < staged.size(); ++i) {
    staged[i].pulse_start_s = link.ppm().encode(i % slots).seconds();
  }
  std::vector<link::WindowResult> windows = staged;
  constexpr int kBatches = 400;
  std::uint64_t lane = 0;
  const double s = time_median_s(5, [&] {
    for (int b = 0; b < kBatches; ++b) {
      std::copy(staged.begin(), staged.end(), windows.begin());
      engine.simulate_windows(windows, lanes, scratch, lane);
      lane += windows.size();
    }
  });
  return s * 1e9 / static_cast<double>(kBatches * windows.size());
}

/// The first sweep point of the spec, axes applied.
scenario::ScenarioSpec first_point(const scenario::ScenarioSpec& spec) {
  scenario::ScenarioSpec s = spec;
  s.seed = scenario::resolve_seed(spec.seed);
  for (const scenario::SweepAxis& axis : spec.sweep) scenario::apply_axis_value(s, axis, 0);
  return s;
}

/// Two shard reports (points by index parity) of a full report.
std::vector<RunReport> split_shards(const RunReport& full) {
  std::vector<RunReport> parts(2, full);
  for (std::size_t k = 0; k < 2; ++k) {
    parts[k].shard = scenario::ShardSpec{k, 2};
    parts[k].points.clear();
    for (const scenario::RunPoint& p : full.points) {
      if (p.point_index % 2 == k) parts[k].points.push_back(p);
    }
  }
  return parts;
}

int run_traced(const Args& args, const Prepared& p, std::size_t width,
               const std::map<std::string, std::string>& env) {
  const bool is_noc = p.spec.topology == scenario::Topology::kStackNoc;
  const scenario::ScenarioRunner runner(width);
  const double start = steady_s();
  Repetitions reps;
  reps.base_seed = p.seed;
  reps.run_for(p, runner, width, start, 0.4 * args.seconds, 2);
  const auto found = reps.first.find(p.seed);
  if (found == reps.first.end()) throw std::runtime_error("no repetition produced a report");
  const RunReport& ref = found->second;

  std::vector<double> replay_walls;
  bench::ReplayResult last;
  std::vector<std::string> disagreements;
  while (replay_walls.size() < 2 || steady_s() - start < 0.8 * args.seconds) {
    last = bench::replay(p.spec, width);
    replay_walls.push_back(last.wall_s);
    std::vector<std::string> d = bench::compare_replay(last, ref);
    if (disagreements.empty()) disagreements = std::move(d);
  }
  const std::map<std::string, LayerTotal> t = layer_totals(last);
  const auto total = [&](const std::string& key) {
    const auto it = t.find(key);
    return it == t.end() ? LayerTotal{} : it->second;
  };
  const double work_ns = total("scenario.point").total_ns;

  // Layer calls outside the replay: recalibration and the bare kernel on
  // the workload's device, the result store, merge and report I/O.
  double calibration_ns = 0.0;
  double calibration_draws = 0.0;
  double kernel_ns = 0.0;
  if (!is_noc) {
    const scenario::ScenarioSpec point = first_point(p.spec);
    util::RngStream process(point.seed, "bench-recalibrate-device");
    link::OpticalLink link(point.device, process);
    util::RngStream cal(point.seed, "bench-recalibrate");
    calibration_ns = 1e9 * time_median_s(3, [&] {
      link.recalibrate(point.device.calibration_samples, cal);
    });
    calibration_draws = static_cast<double>(cal.draws()) / 3.0;
    kernel_ns = kernel_ns_per_window(point);
  }

  const std::string tmp =
      ".bench_build/tmp/" + p.workload.name + "-" + std::to_string(getpid());
  std::filesystem::remove_all(tmp);
  double store_save_ns = 0.0;
  double store_load_ns = 0.0;
  double store_hit_ratio = 0.0;
  {
    const scenario::FsResultStore store(tmp + "/store");
    std::vector<std::pair<scenario::ChunkKey, const scenario::ChunkRecord*>> entries;
    for (const bench::ReplayPoint& pt : last.points) {
      for (std::size_t c = 0; c < pt.records.size(); ++c) {
        entries.emplace_back(scenario::ChunkKey{ref.spec_hash, ref.seed, pt.point_index, c},
                             &pt.records[c]);
      }
    }
    const double n = static_cast<double>(entries.size());
    double t0 = steady_s();
    for (const auto& [key, record] : entries) (void)store.save(key, *record);
    store_save_ns = ratio((steady_s() - t0) * 1e9, n);
    std::size_t hits = 0;
    t0 = steady_s();
    for (const auto& [key, record] : entries) {
      const auto loaded = store.load(key);
      if (loaded && loaded->samples == record->samples &&
          loaded->rng_draws == record->rng_draws && loaded->metrics == record->metrics) {
        ++hits;
      }
    }
    store_load_ns = ratio((steady_s() - t0) * 1e9, n);
    store_hit_ratio = ratio(static_cast<double>(hits), n);
  }
  const std::vector<RunReport> shards = split_shards(ref);
  RunReport merged;
  const double merge_ns =
      1e9 * time_median_s(5, [&] { merged = scenario::merge_reports(shards); });
  if (!bench::compare_deterministic(merged, ref).empty()) {
    std::cerr << "note: the 2-shard merge does not reproduce the full report\n";
  }
  const std::string report_path = tmp + "/report.json";
  const double report_save_ns =
      1e9 * time_median_s(3, [&] { scenario::report_io::save(ref, report_path); });
  const double report_load_ns =
      1e9 * time_median_s(3, [&] { (void)scenario::report_io::load(report_path); });
  std::filesystem::remove_all(tmp);

  write_spans(".bench_build/traces/" + p.workload.name + "-seed" +
                  std::to_string(p.seed) + ".json",
              p, last);
  print_layer_table(t, work_ns, disagreements);

  double max_point_ns = 0.0;
  double point_ns = 0.0;
  for (const scenario::RunPoint& pt : ref.points) {
    max_point_ns = std::max(max_point_ns, pt.wall_ns);
    point_ns += pt.wall_ns;
  }
  std::uint64_t draws = 0;
  std::uint64_t chunks = 0;
  for (const scenario::RunPoint& pt : ref.points) {
    draws += pt.rng_draws;
    chunks += pt.chunks;
  }
  const auto samples = static_cast<double>(bench::total_samples(ref));
  double n_eff = 0.0;
  double weighted_samples = 0.0;
  for (const bench::ReplayPoint& pt : last.points) {
    if (pt.weight_sum_sq > 0.0) {
      n_eff += pt.weight_sum * pt.weight_sum / pt.weight_sum_sq;
      weighted_samples += static_cast<double>(pt.samples);
    }
  }
  const LayerTotal construct = total("link.construct");
  const LayerTotal measure = total("link.measure");
  const LayerTotal rare_chunk = total("rare.run_chunk");
  const LayerTotal slots = total("net.slot_loop");
  const LayerTotal alloc = total("net.alloc");
  const LayerTotal slots_1024 = total("net.slot_loop/1024");
  const LayerTotal alloc_1024 = total("net.alloc/1024");
  const LayerTotal accumulate = total("analysis.accumulate");
  const auto slot_ns = [&](const char* dies) {
    const LayerTotal d = total(std::string("net.slot_loop/") + dies);
    return ratio(d.total_ns, static_cast<double>(d.work));
  };
  const std::vector<Metric> metrics = {
      {"link.construct_ns", "ns", ratio(construct.total_ns, static_cast<double>(construct.calls))},
      {"link.constructions", "count", static_cast<double>(construct.calls)},
      {"link.construct_share", "ratio", ratio(construct.total_ns, work_ns)},
      {"tdc.calibration_ns", "ns", calibration_ns},
      {"tdc.calibration_draws", "count", calibration_draws},
      {"link.measure_ns_per_symbol", "ns",
       ratio(measure.total_ns, static_cast<double>(measure.work))},
      {"link.kernel_ns_per_window", "ns", kernel_ns},
      {"link.engine_share", "ratio", ratio(measure.total_ns, work_ns)},
      {"rare.chunk_ns_per_symbol", "ns",
       ratio(rare_chunk.total_ns, static_cast<double>(rare_chunk.work))},
      {"rare.n_eff_ratio", "ratio", ratio(n_eff, weighted_samples)},
      {"net.slot_ns_64", "ns", slot_ns("64")},
      {"net.slot_ns_256", "ns", slot_ns("256")},
      {"net.slot_ns_1024", "ns", slot_ns("1024")},
      {"net.draws_per_slot_1024", "count",
       ratio(static_cast<double>(slots_1024.draws), static_cast<double>(slots_1024.work))},
      {"net.slot_share", "ratio", ratio(slots.total_ns, work_ns)},
      {"net.alloc_ns_1024", "ns",
       ratio(alloc_1024.total_ns, static_cast<double>(alloc_1024.calls))},
      {"net.alloc_share", "ratio", ratio(alloc.total_ns, work_ns)},
      {"sim.max_point_s", "s", max_point_ns * 1e-9},
      {"sim.parallel_efficiency", "ratio",
       ratio(point_ns * 1e-9, reps.base_wall_s.front() * static_cast<double>(width))},
      {"scenario.chunks", "count", static_cast<double>(chunks)},
      {"scenario.samples", "count", samples},
      {"scenario.rng_draws_per_op", "count", ratio(static_cast<double>(draws), samples)},
      {"scenario.store_save_ns", "ns", store_save_ns},
      {"scenario.store_load_ns", "ns", store_load_ns},
      {"scenario.store_hit_ratio", "ratio", store_hit_ratio},
      {"scenario.merge_ns", "ns", merge_ns},
      {"scenario.report_save_ns", "ns", report_save_ns},
      {"scenario.report_load_ns", "ns", report_load_ns},
      {"analysis.accumulate_ns", "ns",
       ratio(accumulate.total_ns, static_cast<double>(accumulate.calls))},
      {"trace.overhead_s", "s", median(replay_walls) - median(reps.base_wall_s)},
      {"trace.replay_agrees", "count", disagreements.empty() ? 1.0 : 0.0},
      {"failed_fraction", "ratio",
       ratio(static_cast<double>(reps.failed), static_cast<double>(reps.attempted))},
  };
  emit(metrics, reps.attempted, reps.failed, env);
  return 0;
}

int run_timed(const Args& args, const Prepared& p, SetupTimer& setup, std::size_t width,
              const std::map<std::string, std::string>& env) {
  const scenario::ScenarioRunner runner(width);
  Repetitions reps;
  reps.base_seed = p.seed;
  // Set-ups between the repetitions spread setup_s's samples over the
  // run, so a few seconds of a slow or fast machine do not set it.
  const double start = steady_s();
  while (reps.attempted < 3 || steady_s() - start < args.seconds) {
    (void)setup.run(kSetupReps, steady_s());
    reps.run_one(p, runner, width);
  }
  std::vector<double> walls = reps.wall_s;
  std::sort(walls.begin(), walls.end());
  std::printf("%s: %zu repetitions over %zu seeds, %zu failed; wall_s min %.4f median %.4f "
              "max %.4f\n",
              p.workload.name.c_str(), reps.attempted, reps.first.size(), reps.failed,
              walls.empty() ? 0.0 : walls.front(), median(walls),
              walls.empty() ? 0.0 : walls.back());
  const std::vector<Metric> metrics = {
      {"wall_s", "s", median(reps.wall_s)},
      // Per-sample costs pool every repetition: the seeds differ in
      // sample count, and totals average that out better than a median.
      {"ns_per_op", "ns", ratio(reps.total_wall_s * 1e9, reps.total_samples)},
      {"cpu_ns_per_op", "ns", ratio(reps.total_cpu_s * 1e9, reps.total_samples)},
      {"setup_s", "s", setup.setup_s()},
      // After one repetition: later ones only churn allocator arenas, so
      // the process high-water mark would grow with the repetition count.
      {"peak_rss_mib", "MiB", reps.first_peak_rss_mib},
  };
  emit(metrics, reps.attempted, reps.failed, env);
  return 0;
}

/// Corrupts copies of a real report and requires every corruption to
/// fail the output check.
int run_selftest(const Prepared& p, std::size_t width) {
  const scenario::ScenarioRunner runner(width);
  const RunReport report = runner.run(p.spec);
  int failures = 0;
  const auto expect = [&](const char* what, bool ok) {
    std::printf("selftest %s: %s: %s\n", p.workload.name.c_str(), what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  expect("a clean repeat passes the bit-identity check",
         bench::compare_deterministic(runner.run(p.spec), report).empty());

  RunReport bad = report;
  bad.points.back().metrics.front() =
      std::nextafter(bad.points.back().metrics.front(), 2.0);
  expect("a one-ulp metric change is flagged", !bench::compare_deterministic(bad, report).empty());
  bad = report;
  bad.points.front().rng_draws += 1;
  expect("rng_draws off by one is flagged", !bench::compare_deterministic(bad, report).empty());
  bad = report;
  bad.points.front().chunks += 1;
  expect("an extra chunk is flagged", !bench::compare_deterministic(bad, report).empty());

  const auto set_estimate = [](RunReport& r, const std::string& label, const char* metric,
                               double value) {
    for (scenario::RunPoint& pt : r.points) {
      if (pt.label(r.axis_names) != label) continue;
      for (std::size_t m = 0; m < r.metric_names.size(); ++m) {
        if (r.metric_names[m] == metric) {
          pt.metrics[m] = value;
          pt.estimates[m] = analysis::Estimate{value, value, value, pt.samples};
        }
      }
    }
  };
  const std::vector<bench::CrudeSer> crude = bench::crude_reference(p, report, width);
  const auto flagged = [&](const RunReport& r) {
    return !bench::check_invariants(p, r, crude).empty();
  };
  expect("the clean report passes the invariants", !flagged(report));
  if (p.spec.topology == scenario::Topology::kStackNoc) {
    bad = report;
    set_estimate(bad, "dies=1024/mac=cac", "carried_load", 0.0);
    expect("CAC below TDMA at 1024 dies is flagged", flagged(bad));
    bad = report;
    set_estimate(bad, "dies=64/mac=token", "carried_load", p.spec.noc.offered_load * 2.0);
    expect("carried above offered load is flagged", flagged(bad));
  } else {
    bad = report;
    const std::string highest = bad.points.back().label(bad.axis_names);
    set_estimate(bad, bad.points.front().label(bad.axis_names), "ser", 0.5);
    set_estimate(bad, highest, "ser", 0.0);
    expect("SER falling with jitter is flagged", flagged(bad));
    if (p.workload.name == "link_rare") {
      bad = report;
      set_estimate(bad, "jitter_ps=110", "ser", 0.05);
      expect("tilted SER off the same-device crude SER is flagged", flagged(bad));
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double entry = steady_s();
  try {
    const Args args = parse_args(argc, argv);
    const std::vector<std::string> cleared = bench::clear_ambient_knobs();
    // The first set-up is timed from entry to main() and pays the
    // one-time kernel resolution.
    SetupTimer setup{args, {}};
    const Prepared p = setup.run(kSetupReps, entry);
    const std::size_t width = bench::bench_width();

    if (args.selftest) return run_selftest(p, width);
    const auto env = run_environment(width, cleared);
    return args.trace ? run_traced(args, p, width, env)
                      : run_timed(args, p, setup, width, env);
  } catch (const std::exception& e) {
    std::cerr << "scenario_bench: " << e.what() << "\n";
    return 1;
  }
}
