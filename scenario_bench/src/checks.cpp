// Output checks of the scenario benchmark. A repetition passes when its
// deterministic content is bit-identical to the run's first repetition
// of the same seed and the workload's physics invariants hold. Simulated
// statistics are checked here, never scored.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/sim/batch_runner.hpp"

namespace oci::bench {

namespace {

using scenario::RunPoint;
using scenario::RunReport;

std::string where(const RunReport& r, const RunPoint& p) {
  return r.scenario + " point " + std::to_string(p.point_index) + " (" +
         p.label(r.axis_names) + ")";
}

std::optional<std::size_t> axis_index(const RunReport& r, const std::string& axis) {
  const auto it = std::find(r.axis_names.begin(), r.axis_names.end(), axis);
  if (it == r.axis_names.end()) return std::nullopt;
  return static_cast<std::size_t>(it - r.axis_names.begin());
}

/// Jitters at which link_rare's tilted SER is compared with a crude
/// estimate on the same device.
constexpr double kReferenceJitterPs[] = {110.0, 120.0};
/// Crude symbols per reference point. At SER ~0.005 this gives ~2000
/// errors, a 2.2% relative standard deviation.
constexpr std::uint64_t kCrudeSymbols = 400000;
/// Allowed |tilted - crude| in standard deviations of the difference.
/// With both estimates a few percent wide, a tilted estimator biased by
/// 20% fails; an unbiased one fails about once in 10^6 comparisons.
constexpr double kReferenceSds = 5.0;

/// The report's points at the reference jitters, in kReferenceJitterPs
/// order; nullptr where the report has no such point.
std::vector<const RunPoint*> reference_points(const RunReport& r) {
  const auto axis = axis_index(r, "jitter_ps");
  std::vector<const RunPoint*> out;
  for (const double jitter : kReferenceJitterPs) {
    const RunPoint* point = nullptr;
    for (const RunPoint& p : r.points) {
      if (axis && std::stod(p.coordinate[*axis]) == jitter) point = &p;
    }
    out.push_back(point);
  }
  return out;
}

void check_ser_monotone(const RunReport& r, std::vector<std::string>& out) {
  const auto axis = axis_index(r, "jitter_ps");
  if (!axis) {
    out.push_back(r.scenario + ": no jitter_ps axis to check SER monotonicity on");
    return;
  }
  std::vector<const RunPoint*> by_jitter;
  for (const RunPoint& p : r.points) by_jitter.push_back(&p);
  std::sort(by_jitter.begin(), by_jitter.end(), [&](const RunPoint* a, const RunPoint* b) {
    return std::stod(a->coordinate[*axis]) < std::stod(b->coordinate[*axis]);
  });
  // Nondecreasing up to sampling noise: a higher jitter fails only when
  // its whole SER interval sits below the lower jitter's interval.
  for (std::size_t k = 1; k < by_jitter.size(); ++k) {
    const auto& lo = r.estimate(*by_jitter[k - 1], "ser");
    const auto& hi = r.estimate(*by_jitter[k], "ser");
    if (hi.ci_high < lo.ci_low) {
      std::ostringstream os;
      os << where(r, *by_jitter[k]) << ": SER " << hi.value << " falls below "
         << lo.value << " at the lower jitter";
      out.push_back(os.str());
    }
  }
}

void check_tilt_reference(const RunReport& r, const std::vector<CrudeSer>& crude,
                          std::vector<std::string>& out) {
  const std::vector<const RunPoint*> points = reference_points(r);
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (points[k] == nullptr) {
      out.push_back(r.scenario + ": no point at the reference jitter " +
                    scenario::format_axis_value(kReferenceJitterPs[k]) + " ps");
      continue;
    }
    const RunPoint& point = *points[k];
    const auto c = std::find_if(crude.begin(), crude.end(), [&](const CrudeSer& s) {
      return s.point_index == point.point_index;
    });
    if (c == crude.end()) {
      out.push_back(where(r, point) + ": no crude reference");
      continue;
    }
    const auto& e = r.estimate(point, "ser");
    const double tilted_sd = (e.ci_high - e.ci_low) / (2.0 * r.confidence_z);
    const double allowed = kReferenceSds * std::hypot(tilted_sd, c->sd);
    if (std::abs(e.value - c->ser) > allowed) {
      std::ostringstream os;
      os << where(r, point) << ": tilted SER " << e.value << " differs from the crude SER "
         << c->ser << " on the same device by more than " << allowed;
      out.push_back(os.str());
    }
  }
}

void check_noc(const scenario::ScenarioSpec& spec, const RunReport& r,
               std::vector<std::string>& out) {
  const auto load_axis = axis_index(r, "offered_load");
  for (const RunPoint& p : r.points) {
    const double offered =
        load_axis ? std::stod(p.coordinate[*load_axis]) : spec.noc.offered_load;
    if (r.metric(p, "carried_load") > offered) {
      out.push_back(where(r, p) + ": carried_load exceeds the offered load");
    }
  }
  const RunPoint* cac = r.find("dies=1024/mac=cac");
  const RunPoint* tdma = r.find("dies=1024/mac=tdma");
  if (cac == nullptr || tdma == nullptr) {
    out.push_back(r.scenario + ": no CAC and TDMA points at 1024 dies");
  } else if (!(r.metric(*cac, "carried_load") > r.metric(*tdma, "carried_load"))) {
    out.push_back(r.scenario + ": CAC carried_load is not above TDMA at 1024 dies");
  }
}

}  // namespace

std::vector<std::string> compare_deterministic(const RunReport& report,
                                               const RunReport& reference) {
  std::vector<std::string> out;
  if (report.points.size() != reference.points.size()) {
    out.push_back(report.scenario + ": " + std::to_string(report.points.size()) +
                  " points, first repetition had " +
                  std::to_string(reference.points.size()));
    return out;
  }
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const RunPoint& a = report.points[i];
    const RunPoint& b = reference.points[i];
    const auto differs = [&](const std::string& field) {
      out.push_back(where(report, a) + ": " + field + " differs from the first repetition");
    };
    if (a.point_index != b.point_index || a.coordinate != b.coordinate) differs("coordinate");
    if (a.samples != b.samples) differs("samples");
    if (a.chunks != b.chunks) differs("chunks");
    if (a.rng_draws != b.rng_draws) differs("rng_draws");
    if (a.metrics.size() != b.metrics.size() ||
        !std::equal(a.metrics.begin(), a.metrics.end(), b.metrics.begin(), same_bits)) {
      differs("metrics");
    }
  }
  return out;
}

std::vector<CrudeSer> crude_reference(const Prepared& prepared, const RunReport& report,
                                      std::size_t width) {
  if (prepared.workload.name != "link_rare") return {};
  std::vector<std::size_t> indices;
  for (const RunPoint* p : reference_points(report)) {
    if (p != nullptr) indices.push_back(p->point_index);
  }
  scenario::ScenarioSpec base = prepared.spec;
  base.seed = report.seed;
  sim::BatchConfig bc;
  bc.threads = width;
  bc.root_seed = report.seed;
  const sim::BatchRunner runner(bc);
  std::vector<CrudeSer> out(indices.size());
  runner.for_each_index(indices.size(), [&](std::size_t k) {
    const std::size_t index = indices[k];
    const scenario::ScenarioSpec s = point_spec(base, index);
    // Chunk 0's device, fabricated from the runner's stream for it.
    util::RngStream process =
        runner.task_stream("scenario:" + base.name, index, 0).fork("process");
    const link::OpticalLink device(s.device, process);
    util::RngStream tx(report.seed, "bench-crude-reference/" + std::to_string(index));
    const link::LinkRunStats stats = device.measure(kCrudeSymbols, tx);
    const double p = stats.symbol_error_rate();
    const auto n = static_cast<double>(std::max<std::uint64_t>(stats.symbols_sent, 1));
    out[k] = CrudeSer{index, p, std::sqrt(std::max(p * (1.0 - p), 1.0 / n) / n)};
  });
  return out;
}

std::vector<std::string> check_invariants(const Prepared& prepared, const RunReport& r,
                                          const std::vector<CrudeSer>& crude) {
  std::vector<std::string> out;
  if (r.points.empty()) out.push_back(r.scenario + ": report has no points");
  for (const RunPoint& p : r.points) {
    if (p.samples == 0) out.push_back(where(r, p) + ": no samples");
    for (std::size_t m = 0; m < p.metrics.size(); ++m) {
      if (!std::isfinite(p.metrics[m])) {
        out.push_back(where(r, p) + ": metric " + r.metric_names[m] + " is not finite");
      }
    }
  }
  if (!out.empty()) return out;
  const std::string& name = prepared.workload.name;
  if (name.rfind("link_", 0) == 0) check_ser_monotone(r, out);
  if (name == "link_rare") check_tilt_reference(r, crude, out);
  if (name == "noc_scale") check_noc(prepared.spec, r, out);
  return out;
}

}  // namespace oci::bench
