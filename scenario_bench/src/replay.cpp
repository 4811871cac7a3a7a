// Traced replay of ScenarioRunner::run's chunk loop, built only from
// public calls: apply_axis_value, BatchRunner::task_stream(label, point,
// chunk), fork("process"), the layer call, then the accumulators. Each
// layer call gets a Span. The replay mirrors the runner's stream use and
// metric formulas exactly, so its per-point results must equal the
// untraced RunReport bit for bit; compare_replay says when they do not
// (a runner change the replay has not followed), and the per-layer
// table is then stale.
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "oci/analysis/sequential.hpp"
#include "oci/bus/arbitration.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/mac.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/rare/rare.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/sim/batch_runner.hpp"

namespace oci::bench {

namespace {

using scenario::MetricKind;
using scenario::ScenarioSpec;
using util::RngStream;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens a span on construction and closes it on close() or scope exit.
class SpanScope {
 public:
  SpanScope(std::vector<Span>& spans, const char* name, std::int32_t parent)
      : spans_(spans), index_(static_cast<std::int32_t>(spans.size())) {
    spans_.push_back(Span{name, now_ns(), 0, parent, 0, 0, 0});
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { close(); }

  [[nodiscard]] std::int32_t index() const { return index_; }
  Span& span() { return spans_[static_cast<std::size_t>(index_)]; }
  void close() {
    if (span().end_ns == 0) span().end_ns = now_ns();
  }

 private:
  std::vector<Span>& spans_;
  std::int32_t index_;
};

/// What one chunk's layer call hands back (the runner's PointResult).
struct ChunkOutcome {
  std::vector<double> metrics;
  std::uint64_t rng_draws = 0;
  double weight_sum = 0.0;
  double weight_sum_sq = 0.0;
  double err_weight_sq = 0.0;
};

ChunkOutcome run_link_chunk(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                            std::size_t point_index, std::vector<Span>& spans,
                            std::int32_t parent) {
  RngStream process = rng.fork("process");
  std::unique_ptr<link::OpticalLink> link;
  {
    SpanScope span(spans, "link.construct", parent);
    link = std::make_unique<link::OpticalLink>(s.device, process);
    span.span().draws = process.draws();
  }
  ChunkOutcome r;
  if (s.variance.active()) {
    SpanScope span(spans, "rare.run_chunk", parent);
    const rare::ChunkResult cr = rare::run_chunk(*link, s.variance, samples, point_index, rng);
    span.close();
    span.span().work = samples;
    span.span().draws = cr.rng_draws;
    const auto n = static_cast<double>(std::max<std::uint64_t>(cr.stats.symbols_sent, 1));
    const auto bits = static_cast<double>(std::max<std::uint64_t>(cr.stats.total_bits, 1));
    const double elapsed_s = cr.stats.elapsed.seconds();
    r.metrics = {(cr.w_symbol_errors + cr.w_erasures) / n,
                 cr.w_bit_errors / bits,
                 cr.w_erasures / n,
                 cr.w_noise_captures / n,
                 link->ppm().config().slot_width.picoseconds(),
                 cr.stats.raw_throughput().bits_per_second(),
                 elapsed_s > 0.0
                     ? (static_cast<double>(cr.stats.total_bits) - cr.w_bit_errors) / elapsed_s
                     : 0.0,
                 cr.stats.energy_per_bit().joules(),
                 0.0};
    r.rng_draws = process.draws() + cr.rng_draws;
    r.weight_sum = cr.weights.sum();
    r.weight_sum_sq = cr.weights.sum_sq();
    r.err_weight_sq = cr.err_weight_sq;
    return r;
  }
  RngStream tx = rng.fork("tx");
  SpanScope span(spans, "link.measure", parent);
  const link::LinkRunStats stats = link->measure(samples, tx);
  span.close();
  span.span().work = samples;
  span.span().draws = tx.draws() + stats.rng_draws;
  const auto sent = static_cast<double>(std::max<std::uint64_t>(stats.symbols_sent, 1));
  r.metrics = {stats.symbol_error_rate(),
               stats.bit_error_rate(),
               static_cast<double>(stats.erasures) / sent,
               static_cast<double>(stats.noise_captures) / sent,
               link->ppm().config().slot_width.picoseconds(),
               stats.raw_throughput().bits_per_second(),
               stats.goodput().bits_per_second(),
               stats.energy_per_bit().joules(),
               0.0};
  r.rng_draws = process.draws() + tx.draws() + stats.rng_draws;
  return r;
}

ChunkOutcome run_noc_chunk(const ScenarioSpec& s, std::uint64_t slots, RngStream& rng,
                           std::size_t point_index, std::vector<Span>& spans,
                           std::int32_t parent) {
  const scenario::NocSpec& n = s.noc;
  net::StackNetworkConfig cfg;
  cfg.dies = n.dies;
  cfg.traffic.resize(n.dies);
  for (net::TrafficSpec& t : cfg.traffic) {
    t.packets_per_slot = n.offered_load / static_cast<double>(n.dies);
    t.uniform_destinations = true;
    t.payload_bytes = n.payload_bytes;
  }
  cfg.queue_capacity = n.queue_capacity;
  cfg.max_attempts = n.max_attempts;
  cfg.delivery_probability = n.delivery_probability;

  // The runner forks the (unused) link stream before the run stream.
  RngStream process = rng.fork("link");
  RngStream alloc_rng(s.seed, "alloc/" + std::to_string(point_index));
  std::unique_ptr<net::MacPolicy> mac;
  if (n.mac == "cac") {
    SpanScope span(spans, "net.alloc", parent);
    net::cac::AllocConfig ac;
    ac.nodes = n.dies;
    ac.wavelengths = std::min(n.alloc_wavelengths, n.dies);
    ac.weight = n.alloc_weight;
    ac.frame = n.alloc_frame;
    ac.rounds = n.alloc_rounds;
    const net::cac::DistributedAllocator allocator(ac);
    mac = std::make_unique<net::CacMac>(allocator.allocate(alloc_rng));
    span.span().tag = n.dies;
    span.span().draws = alloc_rng.draws();
  } else if (n.mac == "tdma") {
    mac = std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(n.dies));
  } else if (n.mac == "token") {
    mac = std::make_unique<net::TokenMac>(n.dies, 0);
  } else {
    throw std::invalid_argument("replay: MAC '" + n.mac + "' is not modelled");
  }
  std::unique_ptr<net::StackNetwork> network;
  {
    SpanScope span(spans, "net.build", parent);
    network = std::make_unique<net::StackNetwork>(cfg, std::move(mac));
  }
  RngStream run_rng = rng.fork("run");
  SpanScope span(spans, "net.slot_loop", parent);
  const net::NetworkRunResult run = network->run(slots, run_rng);
  span.close();
  span.span().work = slots;
  span.span().draws = run_rng.draws();
  span.span().tag = n.dies;

  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t queue_drops = 0;
  for (const net::DieStats& d : run.per_die) {
    transmissions += d.transmissions;
    collisions += d.collisions;
    retry_drops += d.retry_drops;
    queue_drops += d.queue_drops;
  }
  const std::uint64_t clean = transmissions - collisions;
  const auto run_slots = static_cast<double>(std::max<std::uint64_t>(run.slots, 1));
  ChunkOutcome r;
  r.metrics = {run.carried_load(),
               run.delivery_ratio(),
               clean > 0 ? static_cast<double>(run.total_delivered()) /
                               static_cast<double>(clean)
                         : 0.0,
               run.latency.mean_slots,
               run.latency.p99_slots,
               1.0 - static_cast<double>(run.idle_slots) / run_slots,
               run.fairness_index(),
               n.hot_die < run.per_die.size()
                   ? static_cast<double>(run.per_die[n.hot_die].delivered) / run_slots
                   : 0.0,
               static_cast<double>(retry_drops),
               static_cast<double>(queue_drops)};
  r.rng_draws = alloc_rng.draws() + process.draws() + run_rng.draws();
  return r;
}

void require_modelled(const ScenarioSpec& s) {
  const bool link_symbols = s.topology == scenario::Topology::kPointToPoint &&
                            s.resolved_mode() == scenario::TrafficMode::kSymbols &&
                            s.aggressors.empty();
  const bool noc = s.topology == scenario::Topology::kStackNoc &&
                   s.noc.pattern == scenario::NocPattern::kUniform &&
                   s.noc.delivery == scenario::NocDelivery::kScalar;
  if ((!link_symbols && !noc) || s.fault.any()) {
    throw std::invalid_argument("replay: spec '" + s.name +
                                "' uses features the replay does not model");
  }
}

/// The runner's stop-metric choice: the named metric, else the first
/// rate, else the first mean.
std::size_t stop_metric(const std::vector<scenario::MetricDef>& defs, const std::string& name) {
  for (std::size_t m = 0; m < defs.size(); ++m) {
    if (defs[m].name == name) return m;
  }
  for (MetricKind kind : {MetricKind::kRate, MetricKind::kMean}) {
    for (std::size_t m = 0; m < defs.size(); ++m) {
      if (defs[m].kind == kind) return m;
    }
  }
  return 0;
}

ReplayPoint replay_point(const ScenarioSpec& base, const sim::BatchRunner& runner,
                         const std::vector<scenario::MetricDef>& defs, std::size_t index) {
  ReplayPoint out;
  out.point_index = index;
  SpanScope point_span(out.spans, "scenario.point", -1);

  ScenarioSpec s = point_spec(base, index);
  s.validate();
  require_modelled(s);

  const bool adaptive = base.precision.enabled;
  analysis::StoppingRule rule;
  double z = 1.96;
  std::uint64_t chunk_size = 0;
  std::size_t target = 0;
  if (adaptive) {
    const scenario::PrecisionSpec& prec = s.precision;
    z = prec.confidence_z;
    chunk_size = prec.resolve_chunk(s.budget);
    rule.target_half_width = prec.target_half_width;
    rule.target_relative = prec.target_relative;
    rule.stop_below = prec.stop_below;
    rule.min_samples = prec.resolve_min(s.budget);
    rule.max_samples = prec.resolve_max(s.budget);
    target = stop_metric(defs, prec.metric);
  } else {
    chunk_size = s.budget.resolve();
    rule.max_samples = chunk_size;
  }
  std::vector<analysis::RateAccumulator> rates(defs.size());
  std::vector<analysis::MeanAccumulator> means(defs.size());
  std::vector<double> sums(defs.size(), 0.0);
  std::vector<double> last(defs.size(), 0.0);
  analysis::WeightStats weights;
  const auto estimate_of = [&](std::size_t m) {
    switch (defs[m].kind) {
      case MetricKind::kRate:
        return rates[m].wilson(z);
      case MetricKind::kMean:
        return means[m].interval(z);
      case MetricKind::kCount:
        return analysis::Estimate{sums[m], sums[m], sums[m], out.samples};
      case MetricKind::kConstant:
        break;
    }
    return analysis::Estimate{last[m], last[m], last[m], out.samples};
  };

  const std::string label = "scenario:" + base.name;
  for (std::size_t chunk = 0;; ++chunk) {
    SpanScope chunk_span(out.spans, "scenario.chunk", point_span.index());
    std::uint64_t run_samples = chunk_size;
    if (rule.max_samples > out.samples) {
      run_samples = std::min(run_samples, rule.max_samples - out.samples);
    }
    util::RngStream rng = runner.task_stream(label, index, chunk);
    const ChunkOutcome r =
        s.topology == scenario::Topology::kStackNoc
            ? run_noc_chunk(s, run_samples, rng, index, out.spans, chunk_span.index())
            : run_link_chunk(s, run_samples, rng, index, out.spans, chunk_span.index());
    out.records.push_back(scenario::ChunkRecord{run_samples, r.rng_draws, r.metrics,
                                                r.weight_sum, r.weight_sum_sq,
                                                r.err_weight_sq});

    SpanScope acc_span(out.spans, "analysis.accumulate", chunk_span.index());
    for (std::size_t m = 0; m < defs.size(); ++m) {
      switch (defs[m].kind) {
        case MetricKind::kRate:
          rates[m].add(r.metrics[m], run_samples);
          break;
        case MetricKind::kMean:
          means[m].add(r.metrics[m], run_samples);
          break;
        case MetricKind::kCount:
          sums[m] += r.metrics[m];
          break;
        case MetricKind::kConstant:
          break;
      }
      last[m] = r.metrics[m];
    }
    if (r.weight_sum > 0.0) {
      weights.merge(
          analysis::WeightStats::from_state(r.weight_sum, r.weight_sum_sq, run_samples));
    }
    out.samples += run_samples;
    ++out.chunks;
    out.rng_draws += r.rng_draws;
    const bool stop = rule.should_stop(estimate_of(target));
    acc_span.close();
    chunk_span.close();
    if (stop) break;
  }
  for (std::size_t m = 0; m < defs.size(); ++m) out.metrics.push_back(estimate_of(m).value);
  out.weight_sum = weights.sum();
  out.weight_sum_sq = weights.sum_sq();
  return out;
}

}  // namespace

ScenarioSpec point_spec(const ScenarioSpec& base, std::size_t index) {
  std::vector<std::size_t> axis_index(base.sweep.size(), 0);
  for (std::size_t a = base.sweep.size(); a-- > 0;) {
    axis_index[a] = index % base.sweep[a].size();
    index /= base.sweep[a].size();
  }
  ScenarioSpec s = base;
  for (std::size_t a = 0; a < base.sweep.size(); ++a) {
    scenario::apply_axis_value(s, base.sweep[a], axis_index[a]);
  }
  return s;
}

ReplayResult replay(const ScenarioSpec& spec, std::size_t width) {
  const std::int64_t t0 = now_ns();
  ScenarioSpec base = spec;
  base.seed = scenario::resolve_seed(spec.seed);
  scenario::apply_precision_overrides(base);
  base.validate();
  const std::vector<scenario::MetricDef> defs = scenario::metrics_for(base);

  sim::BatchConfig bc;
  bc.threads = width;
  bc.root_seed = base.seed;
  const sim::BatchRunner runner(bc);
  ReplayResult result;
  result.points.resize(base.sweep_points());
  runner.for_each_index(result.points.size(), [&](std::size_t i) {
    result.points[i] = replay_point(base, runner, defs, i);
  });
  result.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return result;
}

std::vector<std::string> compare_replay(const ReplayResult& replay,
                                        const scenario::RunReport& report) {
  std::vector<std::string> out;
  if (replay.points.size() != report.points.size()) {
    out.push_back("replay has " + std::to_string(replay.points.size()) +
                  " points, the report " + std::to_string(report.points.size()));
    return out;
  }
  for (std::size_t i = 0; i < replay.points.size(); ++i) {
    const ReplayPoint& a = replay.points[i];
    const scenario::RunPoint& b = report.points[i];
    const std::string at = "point " + std::to_string(b.point_index) + ": ";
    if (a.point_index != b.point_index) out.push_back(at + "index");
    if (a.samples != b.samples) out.push_back(at + "samples");
    if (a.chunks != b.chunks) out.push_back(at + "chunks");
    if (a.rng_draws != b.rng_draws) out.push_back(at + "rng_draws");
    if (a.metrics.size() != b.metrics.size() ||
        !std::equal(a.metrics.begin(), a.metrics.end(), b.metrics.begin(), same_bits)) {
      out.push_back(at + "metrics");
    }
  }
  return out;
}

}  // namespace oci::bench
