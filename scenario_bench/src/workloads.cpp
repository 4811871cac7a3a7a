// The workload table of the scenario benchmark and the set-up that pins
// each workload's spec, seed and repro scale.
#include <stdlib.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "oci/analysis/report.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/parse.hpp"

namespace oci::bench {

const std::vector<Workload>& workloads() {
  // Why each workload exists is in README.md and BENCHMARK.json.
  static const std::vector<Workload> table = {
      {"link_adaptive", "scenarios/link_jitter.spec", 0.02},
      {"link_bulk", "scenario_bench/specs/link_bulk.spec", 1.0},
      {"link_rare", "scenario_bench/specs/link_rare.spec", 1.0},
      {"noc_scale", "scenarios/noc_thousand_node.spec", 1.0},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

std::vector<std::string> clear_ambient_knobs() {
  static const char* const knobs[] = {"OCI_SEED", "OCI_PRECISION", "OCI_MAX_SAMPLES",
                                      "OCI_REPRO_SCALE", "OCI_BATCH_THREADS"};
  std::vector<std::string> cleared;
  for (const char* knob : knobs) {
    if (std::getenv(knob) == nullptr) continue;
    ::unsetenv(knob);
    cleared.emplace_back(knob);
  }
  return cleared;
}

Prepared prepare(const std::string& name, std::optional<std::uint64_t> seed, bool tiny) {
  Prepared p;
  p.workload = find_workload(name);
  p.spec = scenario::parse_spec_file(p.workload.spec_path);
  analysis::set_repro_scale_for_test(tiny ? 0.01 : p.workload.repro_scale);
  p.seed = seed.value_or(p.spec.seed);
  scenario::set_seed_override(p.seed);
  p.spec.validate();
  return p;
}

std::size_t bench_width() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::uint64_t total_samples(const scenario::RunReport& report) {
  std::uint64_t n = 0;
  for (const scenario::RunPoint& p : report.points) n += p.samples;
  return n;
}

}  // namespace oci::bench
