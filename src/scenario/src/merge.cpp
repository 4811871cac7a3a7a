#include "oci/scenario/merge.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace oci::scenario {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("scenario merge: " + what);
}

void check_same(bool ok, const char* field) {
  if (!ok) fail(std::string("reports disagree on ") + field +
                " -- they are not partials of the same experiment");
}

/// Pools `from` into `into` (both observed the same sweep point under
/// different seeds) and recomputes the estimates from the pooled state.
void pool_point(RunPoint& into, const RunPoint& from, double z) {
  for (std::size_t m = 0; m < into.state.size(); ++m) {
    // A constant differing here means the reports are not from the same
    // experiment (e.g. built by different binaries).
    if (!into.state[m].merge(from.state[m])) {
      std::ostringstream os;
      os << "constant metric #" << m << " differs across reports at point "
         << into.point_index << " (" << into.state[m].value << " vs "
         << from.state[m].value << ")";
      fail(os.str());
    }
  }
  into.samples += from.samples;
  into.chunks += from.chunks;
  into.rng_draws += from.rng_draws;
  into.wall_ns += from.wall_ns;
  // Likelihood-ratio weight state pools exactly like the metric state:
  // sums of independent per-sample moments. n_eff/weight_cv are always
  // recomputed from the pooled state, never averaged.
  into.weights.merge(from.weights);
  into.err_weight_sq += from.err_weight_sq;
  into.refresh(z);
}

}  // namespace

RunReport merge_reports(const std::vector<RunReport>& parts,
                        const MergeOptions& options) {
  if (parts.empty()) fail("no reports to merge");
  const RunReport& first = parts.front();
  const std::size_t n_metrics = first.metric_names.size();

  for (const RunReport& r : parts) {
    check_same(r.scenario == first.scenario, "scenario name");
    check_same(r.spec_hash == first.spec_hash, "spec_hash");
    check_same(r.topology == first.topology, "topology");
    check_same(r.axis_names == first.axis_names, "axis names");
    check_same(r.metric_names == first.metric_names, "metric names");
    check_same(r.metric_kinds == first.metric_kinds, "metric kinds");
    check_same(r.repro_scale == first.repro_scale, "repro_scale");
    check_same(r.adaptive == first.adaptive, "adaptive flag");
    check_same(r.points_total == first.points_total, "points_total");
    check_same(r.confidence_z == first.confidence_z, "confidence_z");
    check_same(r.engine_revision == first.engine_revision, "engine revision");
    for (const RunPoint& p : r.points) {
      if (p.state.size() != n_metrics) {
        fail("a report lacks per-metric accumulator state (not written by "
             "this version's report_io?)");
      }
    }
  }

  // Fold points by global index. A (point, seed) pair may appear once:
  // the same seed twice is the same random samples twice.
  std::map<std::size_t, RunPoint> merged;
  std::map<std::size_t, std::set<std::uint64_t>> seeds_seen;
  for (const RunReport& r : parts) {
    for (const RunPoint& p : r.points) {
      if (!seeds_seen[p.point_index].insert(r.seed).second) {
        fail("point " + std::to_string(p.point_index) + " appears twice under seed " +
             std::to_string(r.seed) + " -- duplicate shard or repeated input?");
      }
      auto [it, inserted] = merged.emplace(p.point_index, p);
      if (!inserted) {
        pool_point(it->second, p, first.confidence_z);
      }
    }
  }

  const std::size_t points_total =
      first.points_total > 0 ? first.points_total : merged.size();
  if (!options.allow_partial) {
    for (std::size_t g = 0; g < points_total; ++g) {
      if (merged.find(g) == merged.end()) {
        fail("sweep point " + std::to_string(g) + " of " +
             std::to_string(points_total) +
             " is covered by no report (missing shard?); pass --allow-partial "
             "to merge anyway");
      }
    }
  }

  RunReport out;
  out.scenario = first.scenario;
  out.description = first.description;
  out.repro_scale = first.repro_scale;
  out.topology = first.topology;
  out.adaptive = first.adaptive;
  out.spec_hash = first.spec_hash;
  out.confidence_z = first.confidence_z;
  out.engine_revision = first.engine_revision;
  out.points_total = points_total;
  out.axis_names = first.axis_names;
  out.metric_names = first.metric_names;
  out.metric_kinds = first.metric_kinds;
  // Seed: the common seed when every input agrees (the shard case);
  // 0 marks a pooled multi-seed document.
  out.seed = first.seed;
  for (const RunReport& r : parts) {
    if (r.seed != out.seed) {
      out.seed = 0;
      break;
    }
  }
  for (const RunReport& r : parts) {
    out.threads = std::max(out.threads, r.threads);
    out.cache_hits += r.cache_hits;
    out.cache_misses += r.cache_misses;
    out.cache_save_failures += r.cache_save_failures;
    out.points_realised += r.points_realised;
  }
  out.points.reserve(merged.size());
  for (auto& [index, point] : merged) out.points.push_back(std::move(point));
  return out;
}

}  // namespace oci::scenario
