#include "oci/scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "oci/analysis/report.hpp"
#include "oci/bus/vertical_bus.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/link/fec_link.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"
#include "oci/link/wdm_link.hpp"
#include "oci/modulation/frame.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/rare/rare.hpp"
#include "oci/tdc/calibration.hpp"

namespace oci::scenario {

namespace {

using util::RngStream;
using util::Time;

/// Index of the metric the stopping rule watches: the named metric, or
/// the first rate-kind metric, or the first non-constant one.
std::size_t stop_metric_index(const std::vector<MetricDef>& defs,
                              const std::string& name) {
  if (!name.empty()) {
    for (std::size_t m = 0; m < defs.size(); ++m) {
      if (defs[m].name == name) return m;
    }
  }
  for (std::size_t m = 0; m < defs.size(); ++m) {
    if (defs[m].kind == MetricKind::kRate) return m;
  }
  for (std::size_t m = 0; m < defs.size(); ++m) {
    if (defs[m].kind == MetricKind::kMean) return m;
  }
  return 0;
}

/// One-line warning the FIRST time a result-store save fails in this
/// process; every later failure only bumps the report counter. A full
/// or read-only cache degrades the run to uncached, it never fails it.
void warn_save_failure_once() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::cerr << "scenario: result-store save failed; run continues uncached "
                 "(cache_save_failures counts every failed chunk)\n";
  }
}

/// Flat sweep index -> per-axis indices, first axis slowest.
std::vector<std::size_t> unravel(std::size_t flat, const std::vector<SweepAxis>& axes) {
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    idx[a] = flat % axes[a].size();
    flat /= axes[a].size();
  }
  return idx;
}

/// A sweep point's hardware: realised once, from chunk 0's stream, and
/// read by every chunk of the point. A chunk builds only what it runs
/// (MAC, delivery model, network) from these.
struct PointHardware {
  /// Point-to-point device (after any TDC drift and retrain), or the
  /// NoC's engine-coupled PHY.
  std::unique_ptr<link::OpticalLink> link;
  /// The WDM link and the die stack its config points into.
  std::unique_ptr<photonics::DieStack> stack;
  std::unique_ptr<link::WdmLink> wdm;
  /// The vertical bus and its broadcast receivers.
  std::unique_ptr<bus::VerticalBus> bus;
  bus::BusReceivers receivers;
  /// NoC fec-probe: measured FEC frame delivery at the device's
  /// operating point.
  double delivery_probability = 0.0;
  /// NoC CAC: the slot/wavelength schedule over the MAC's participants.
  std::optional<net::cac::Allocation> allocation;
  /// Draws and retrains of the realisation. Chunk 0's record carries
  /// them, whichever chunk realised the hardware.
  std::uint64_t rng_draws = 0;
  std::uint64_t recalibrations = 0;
};

/// What a chunk reads of its sweep point besides the spec.
struct ChunkContext {
  const PointHardware& hw;
  /// The realisations an engine must act on (windows, drift, channel
  /// scales, dead dies); nullptr on an unfaulted point.
  const fault::Realisation* fr = nullptr;
  std::size_t point = 0;  ///< GLOBAL sweep index
  std::size_t chunk = 0;  ///< ordinal within the point
};

/// The point-to-point device, from chunk 0's "process" fork: process
/// variation and calibration, then any TDC drift and retrain.
PointHardware realise_link(const ScenarioSpec& s, RngStream& rng, const fault::Realisation* fr,
                           std::size_t) {
  PointHardware hw;
  RngStream process = rng.fork("process");
  hw.link = std::make_unique<link::OpticalLink>(s.device, process);
  if (fr != nullptr && fr->tdc_drift_c != 0.0) {
    // The drift hits AFTER construction calibrated at the nominal
    // temperature: the delay line walks out from under the trained
    // LUT/offset -- exactly the gap set_temperature leaves open.
    hw.link->set_temperature(
        util::Temperature::celsius(s.device.temperature.celsius() + fr->tdc_drift_c));
    if (fr->recalibrate && s.device.calibrate) {
      // Graceful degradation: retrain at the operating point. The
      // training windows' kernel lanes are not in process.draws().
      hw.rng_draws += hw.link->recalibrate(s.device.calibration_samples, process);
      ++hw.recalibrations;
    }
  }
  hw.rng_draws += process.draws();
  return hw;
}

ChunkRecord run_p2p_symbols(const ScenarioSpec& s, std::uint64_t samples, RngStream& rng,
                            const ChunkContext& ctx) {
  const link::OpticalLink& link = *ctx.hw.link;
  const fault::Realisation* fr = ctx.fr;
  // Chunk 0's "process" fork built the device. Every chunk still steps
  // its stream past that fork, so its later ones ("tx", the rare-event
  // streams) are the streams it drew from when it built a device of its
  // own.
  rng.skip_fork();
  // Both chunk flavours fill one metric vector from these counts:
  // likelihood-ratio-weighted sums on a rare-event chunk, the plain
  // counts as doubles (exact below 2^53) on a crude one.
  ChunkRecord r;
  link::LinkRunStats stats;
  double ser_errors = 0.0;  // symbol errors + erasures
  double bit_errors = 0.0;
  double erasures = 0.0;
  double noise_captures = 0.0;
  if (s.variance.active()) {
    // Rare-event acceleration: run the chunk as i.i.d. symbol windows
    // under the tilted/stratified proposal and fold the likelihood-
    // ratio-weighted counts into the SAME metric schema -- weighted
    // rates feed RateAccumulator as fractional successes. validate()
    // restricts active variance to plain symbol traffic, so the
    // aggressors and window faults below never coexist with this.
    const rare::ChunkResult cr = rare::run_chunk(link, s.variance, samples, ctx.point, rng);
    stats = cr.stats;
    ser_errors = cr.w_symbol_errors + cr.w_erasures;
    bit_errors = cr.w_bit_errors;
    erasures = cr.w_erasures;
    noise_captures = cr.w_noise_captures;
    r.rng_draws = cr.rng_draws;
    r.weight_sum = cr.weights.sum();
    r.weight_sum_sq = cr.weights.sum_sq();
    r.err_weight_sq = cr.err_weight_sq;
  } else {
    RngStream tx = rng.fork("tx");
    // Dark/flaky transmit windows draw a driver-health uniform per
    // symbol from a dedicated stream and scale the launched pulse (0 =
    // dropped); aggressor pulses join every window at their offsets. A
    // point with neither passes no inputs: the plain batched run, which
    // the chunk's samples feed to the window kernel in kEngineBatch-lane
    // spans. Results stay a pure function of (spec, seed) -- each lane
    // is a counter stream, independent of thread count.
    std::vector<double> scale;
    if (fr != nullptr && fr->window_faults()) {
      RngStream wf = rng.fork("window-faults");
      scale.assign(samples, 1.0);
      for (double& x : scale) {
        const double u = wf.uniform();
        if (u < fr->dark_window_probability) {
          x = 0.0;
        } else if (u < fr->dark_window_probability + fr->flaky_window_probability) {
          x = fr->flaky_scale;
        }
      }
      r.rng_draws = wf.draws();
    }
    std::vector<double> means;
    std::vector<double> starts;  // one per aggressor, for every window
    for (const AggressorSpec& a : s.aggressors) {
      means.push_back(a.mean_photons);
      starts.push_back(Time::picoseconds(a.offset_ps).seconds());
    }
    stats = link::LinkEngine(link).measure(
        samples, tx,
        {.signal_scale = scale, .aggressor_means = means, .aggressor_starts_s = starts});
    ser_errors = static_cast<double>(stats.symbol_errors + stats.erasures);
    bit_errors = static_cast<double>(stats.bit_errors);
    erasures = static_cast<double>(stats.erasures);
    noise_captures = static_cast<double>(stats.noise_captures);
    // The window kernel's counter-stream draws live in stats, not in
    // the mt19937 streams; both are deterministic per (spec, seed).
    r.rng_draws += tx.draws() + stats.rng_draws;
  }

  const auto n = static_cast<double>(std::max<std::uint64_t>(stats.symbols_sent, 1));
  const auto bits = static_cast<double>(std::max<std::uint64_t>(stats.total_bits, 1));
  const double elapsed_s = stats.elapsed.seconds();
  r.metrics = {ser_errors / n,
               bit_errors / bits,
               erasures / n,
               noise_captures / n,
               link.ppm().config().slot_width.picoseconds(),
               stats.raw_throughput().bits_per_second(),
               elapsed_s > 0.0
                   ? (static_cast<double>(stats.total_bits) - bit_errors) / elapsed_s
                   : 0.0,
               stats.energy_per_bit().joules(),
               // The realisation's retrains, counted once per point.
               static_cast<double>(ctx.chunk == 0 ? ctx.hw.recalibrations : 0)};
  return r;
}

ChunkRecord run_p2p_frames(const ScenarioSpec& s, std::uint64_t transfers, RngStream& rng,
                           const ChunkContext& ctx) {
  const link::OpticalLink& link = *ctx.hw.link;
  rng.skip_fork();  // chunk 0's "process" built the device
  RngStream tx = rng.fork("tx");

  const std::vector<std::uint8_t> payload(s.payload_bytes, 0x5A);
  std::uint64_t ok = 0;
  std::uint64_t corrections = 0;
  std::uint64_t lane_draws = 0;  // the window kernel's, not in tx.draws()
  if (s.fec == FecKind::kHamming) {
    const link::FecLink fec(link);
    for (std::uint64_t i = 0; i < transfers; ++i) {
      const link::FecTransferResult t = fec.transfer(payload, tx);
      lane_draws += t.stats.rng_draws;
      if (t.payload && *t.payload == payload) {
        ++ok;
        corrections += t.corrections;
      }
    }
  } else {
    for (std::uint64_t i = 0; i < transfers; ++i) {
      modulation::Frame f;
      f.payload = payload;
      const link::OpticalLink::FrameResult t = link.transmit_frame(f, tx);
      lane_draws += t.stats.rng_draws;
      if (t.frame && t.frame->payload == payload) ++ok;
    }
  }

  const double n = static_cast<double>(std::max<std::uint64_t>(transfers, 1));
  ChunkRecord r;
  r.metrics = {static_cast<double>(ok) / n, static_cast<double>(corrections) / n,
               s.fec == FecKind::kHamming ? link::FecLink::code_rate() : 1.0};
  r.rng_draws = tx.draws() + lane_draws;
  return r;
}

ChunkRecord run_p2p_code_density(const ScenarioSpec& s, std::uint64_t samples,
                                 RngStream& rng, const ChunkContext&) {
  RngStream process = rng.fork("process");
  const tdc::DelayLine line(s.device.delay_line, process);
  tdc::TdcConfig cfg;
  cfg.coarse_bits = s.device.design.coarse_bits;
  // The system clock covers the design's fine range; the delay line may
  // carry margin elements beyond it (the production link's slow-corner
  // rule), exactly like the abl_scaling sweep this mode absorbs.
  cfg.clock_period =
      s.device.design.element_delay * static_cast<double>(s.device.design.fine_elements);
  const tdc::Tdc tdc(line, cfg);
  RngStream hits = rng.fork("hits");
  const tdc::NonlinearityReport rep = tdc::code_density_test(tdc, samples, hits);

  ChunkRecord r;
  r.metrics = {rep.max_abs_dnl, rep.max_abs_inl, rep.lsb_s * 1e12,
               static_cast<double>(rep.codes)};
  r.rng_draws = process.draws() + hits.draws();
  return r;
}

/// The WDM link (one calibrated link per channel) from chunk 0's
/// "process" fork, with any dead or aged lasers.
PointHardware realise_wdm(const ScenarioSpec& s, RngStream& rng, const fault::Realisation* fr,
                          std::size_t) {
  PointHardware hw;
  link::WdmLinkConfig wc;
  wc.grid = s.wdm.grid;
  wc.filter = s.wdm.filter;
  wc.base = s.device;
  wc.path_transmittance = s.wdm.path_transmittance;
  if (fr != nullptr && !fr->channel_scale.empty()) {
    wc.channel_power_scale = fr->channel_scale;
  }
  if (s.wdm.stack_dies > 0) {
    hw.stack = std::make_unique<photonics::DieStack>(
        photonics::DieStack::uniform(s.wdm.stack_dies, photonics::DieSpec{}));
    wc.stack = hw.stack.get();
    wc.from_die = s.wdm.from_die;
    wc.to_die = s.wdm.to_die;
  }
  RngStream process = rng.fork("process");
  hw.wdm = std::make_unique<link::WdmLink>(wc, process);
  hw.rng_draws = process.draws();
  return hw;
}

ChunkRecord run_wdm(const ScenarioSpec&, std::uint64_t samples, RngStream& rng,
                    const ChunkContext& ctx) {
  const link::WdmLink& wdm = *ctx.hw.wdm;
  rng.skip_fork();  // chunk 0's "process" built the link
  RngStream tx = rng.fork("tx");
  const auto run = wdm.measure(samples, tx);

  std::uint64_t captures = 0;
  std::uint64_t lane_draws = 0;
  for (const auto& chan : run.per_channel) {
    captures += chan.stats.noise_captures;
    lane_draws += chan.stats.rng_draws;
  }
  const double agg = run.aggregate_goodput().bits_per_second();
  const std::size_t n = wdm.channels();

  ChunkRecord r;
  r.metrics = {agg / 1e9,
               agg / static_cast<double>(n) / 1e6,
               run.worst_symbol_error_rate(),
               static_cast<double>(captures),
               wdm.collected_fraction(0, 0),
               wdm.collected_fraction(n - 1, n - 1)};
  r.rng_draws = tx.draws() + lane_draws;
  return r;
}

/// The vertical bus and its broadcast receivers, from chunk 0's
/// "process" fork.
PointHardware realise_bus(const ScenarioSpec& s, RngStream& rng, const fault::Realisation*,
                          std::size_t) {
  bus::VerticalBusConfig bc;
  bc.die = s.bus.die;
  bc.dies = s.bus.dies;
  bc.master = s.bus.master;
  bc.design = s.device.design;
  bc.led = s.device.led;
  bc.spad = s.device.spad;
  bc.min_detection_probability = s.bus.min_detection_probability;
  bc.bits_per_symbol = s.device.bits_per_symbol;
  bc.mc_calibrate = s.device.calibrate;
  bc.mc_calibration_samples = s.device.calibration_samples;
  PointHardware hw;
  hw.bus = std::make_unique<bus::VerticalBus>(bc);
  RngStream process = rng.fork("process");
  hw.receivers = hw.bus->build_receivers(process);
  hw.rng_draws = process.draws();
  return hw;
}

ChunkRecord run_bus(const ScenarioSpec&, std::uint64_t samples, RngStream& rng,
                    const ChunkContext& ctx) {
  const bus::VerticalBus& vbus = *ctx.hw.bus;
  rng.skip_fork();  // chunk 0's "process" built the receivers
  RngStream mc = rng.fork("mc");
  const auto run = vbus.monte_carlo_broadcast(ctx.hw.receivers, samples, mc);

  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  std::uint64_t draws = mc.draws();
  for (const auto& d : run.per_die) {
    sent += d.symbols_sent;
    errors += d.symbol_errors;
    draws += d.rng_draws;
  }
  ChunkRecord r;
  r.metrics = {run.worst_symbol_error_rate(),
               sent > 0 ? static_cast<double>(errors) / static_cast<double>(sent) : 0.0,
               static_cast<double>(vbus.serviceable_dies()),
               vbus.aggregate_broadcast_goodput().bits_per_second() / 1e9};
  r.rng_draws = draws;
  return r;
}

/// The MAC over `dies` participants; CAC arbitrates by the point's
/// realised schedule.
std::unique_ptr<net::MacPolicy> make_mac(const std::string& kind, std::size_t dies,
                                         const PointHardware& hw) {
  if (kind == "cac") return std::make_unique<net::CacMac>(*hw.allocation);
  if (kind == "tdma") return std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(dies));
  if (kind == "token") return std::make_unique<net::TokenMac>(dies, 0);
  if (kind == "token+pass") return std::make_unique<net::TokenMac>(dies, 1);
  if (kind == "aloha") {
    return std::make_unique<net::AlohaMac>(1.0 / static_cast<double>(dies));
  }
  throw std::invalid_argument("scenario: unknown MAC policy '" + kind + "'");
}

/// CAC schedule over `participants` transmitters: a pure function of
/// the spec knobs and `alloc_rng`.
net::cac::Allocation allocate_cac(const NocSpec& n, std::size_t participants,
                                  RngStream& alloc_rng) {
  net::cac::AllocConfig ac;
  ac.nodes = participants;
  ac.wavelengths = std::min(n.alloc_wavelengths, participants);
  ac.weight = n.alloc_weight;
  ac.frame = n.alloc_frame;
  ac.rounds = n.alloc_rounds;
  const net::cac::DistributedAllocator allocator(ac);
  return allocator.allocate(alloc_rng);
}

/// The live dies a faulted NoC's MAC re-arbitrates over when it
/// reclaims the dead dies' shares; empty when every die takes part.
std::vector<std::size_t> reclaimed_members(const ScenarioSpec& s, const fault::Realisation* fr) {
  std::vector<std::size_t> members;
  if (fr != nullptr && fr->mac_reclaim && !fr->dead_nodes.empty() &&
      fr->live_nodes() < s.noc.dies) {
    for (std::size_t die = 0; die < s.noc.dies; ++die) {
      if (fr->dead_nodes[die] == 0) members.push_back(die);
    }
  }
  return members;
}

net::StackNetworkConfig noc_config(const NocSpec& n) {
  net::StackNetworkConfig cfg;
  cfg.dies = n.dies;
  cfg.traffic.resize(n.dies);
  const auto dies = static_cast<double>(n.dies);
  switch (n.pattern) {
    case NocPattern::kUniform:
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.uniform_destinations = true;
      }
      break;
    case NocPattern::kHotspot:
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.uniform_destinations = true;
      }
      cfg.traffic[n.hot_die].packets_per_slot = n.hot_load;
      break;
    case NocPattern::kMasterBroadcast:
      cfg.traffic[0].packets_per_slot = n.master_load;
      cfg.traffic[0].destination = net::kBroadcast;
      for (std::size_t die = 1; die < n.dies; ++die) {
        cfg.traffic[die].packets_per_slot = n.worker_load;
        cfg.traffic[die].destination = 0;
      }
      break;
    case NocPattern::kIncast:
      // Many-to-one convergence: every die except the sink sends its
      // share of the aggregate straight at hot_die.
      for (std::size_t die = 0; die < n.dies; ++die) {
        if (die == n.hot_die) continue;
        cfg.traffic[die].packets_per_slot =
            n.offered_load / std::max(dies - 1.0, 1.0);
        cfg.traffic[die].destination = n.hot_die;
      }
      break;
    case NocPattern::kBroadcastStorm:
      // Every die floods the stack with broadcasts: the worst case for
      // any arbitration (no spatial reuse, every frame contends).
      for (auto& t : cfg.traffic) {
        t.packets_per_slot = n.offered_load / dies;
        t.destination = net::kBroadcast;
      }
      break;
  }
  for (auto& t : cfg.traffic) t.payload_bytes = n.payload_bytes;
  cfg.queue_capacity = n.queue_capacity;
  cfg.max_attempts = n.max_attempts;
  cfg.delivery_probability = n.delivery_probability;
  return cfg;
}

/// The NoC's hardware: the engine-coupled PHY from chunk 0's "link"
/// fork, the fec probe's verdict from its "probe" fork, and the CAC
/// schedule.
PointHardware realise_noc(const ScenarioSpec& s, RngStream& rng, const fault::Realisation* fr,
                          std::size_t point_index) {
  PointHardware hw;
  RngStream process = rng.fork("link");
  if (s.noc.delivery != NocDelivery::kScalar) {
    hw.link = std::make_unique<link::OpticalLink>(s.device, process);
    if (s.noc.delivery == NocDelivery::kFecProbe) {
      // Fold the photon-level link into one per-transfer probability:
      // measured FEC frame delivery at the device's operating point.
      const link::FecLink fec(*hw.link);
      RngStream probe = rng.fork("probe");
      const std::vector<std::uint8_t> payload(s.noc.payload_bytes, 0xA5);
      const std::uint64_t probes =
          analysis::scaled(s.noc.probe_transfers, std::min<std::uint64_t>(
                                                      s.noc.probe_transfers, 20));
      std::uint64_t ok = 0;
      for (std::uint64_t i = 0; i < probes; ++i) {
        const link::FecTransferResult t = fec.transfer(payload, probe);
        hw.rng_draws += t.stats.rng_draws;
        if (t.payload && *t.payload == payload) ++ok;
      }
      hw.delivery_probability = std::max(
          static_cast<double>(ok) / static_cast<double>(std::max<std::uint64_t>(probes, 1)),
          0.01);
      hw.rng_draws += probe.draws();
    }
  }
  hw.rng_draws += process.draws();
  if (s.noc.mac == "cac") {
    // Keyed on the GLOBAL sweep point like the fault realisation, so
    // the schedule is the same regardless of threads or shards.
    RngStream alloc_rng(s.seed, "alloc/" + std::to_string(point_index));
    const std::vector<std::size_t> members = reclaimed_members(s, fr);
    hw.allocation =
        allocate_cac(s.noc, members.empty() ? s.noc.dies : members.size(), alloc_rng);
    hw.rng_draws += alloc_rng.draws();
  }
  return hw;
}

ChunkRecord run_noc(const ScenarioSpec& s, std::uint64_t slots, RngStream& rng,
                    const ChunkContext& ctx) {
  const PointHardware& hw = ctx.hw;
  const fault::Realisation* fr = ctx.fr;
  net::StackNetworkConfig cfg = noc_config(s.noc);
  if (fr != nullptr && fr->noc_faults()) {
    cfg.dead_nodes = fr->dead_nodes;
    cfg.broken_links = fr->broken_links;
    cfg.reroute_dead_destinations = fr->reroute;
  }

  // Chunk 0's "link" and "probe" forks built the PHY and probed it;
  // every chunk still steps past them, so "run" stays the same fork.
  rng.skip_fork();  // "link"
  std::unique_ptr<link::SymbolDeliveryModel> phy_model;  // must outlive network.run()
  if (hw.link) {
    if (s.noc.delivery == NocDelivery::kFecProbe) {
      rng.skip_fork();  // "probe"
      cfg.delivery_probability = hw.delivery_probability;
    } else {
      phy_model = std::make_unique<link::SymbolDeliveryModel>(*hw.link);
      cfg.delivery_model = [model = phy_model.get()](const net::Packet& p,
                                                     RngStream& r) {
        return model->deliver(p.payload_bytes, r);
      };
    }
  }

  const std::vector<std::size_t> members = reclaimed_members(s, fr);
  std::unique_ptr<net::MacPolicy> mac =
      make_mac(s.noc.mac, members.empty() ? s.noc.dies : members.size(), hw);
  if (!members.empty()) {
    // MAC re-arbitration over the survivors: the inner policy is built
    // for the live population (TDMA slots reclaimed, token ring
    // shortened, CAC codewords and wavelength shares reallocated over
    // the survivors) and SubsetMac remaps it onto the full die space.
    mac = std::make_unique<net::SubsetMac>(std::move(mac), members, s.noc.dies);
  }
  net::StackNetwork network(cfg, std::move(mac));
  RngStream run_rng = rng.fork("run");
  const auto run = network.run(slots, run_rng);

  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t retry_drops = 0;
  std::uint64_t queue_drops = 0;
  for (const auto& d : run.per_die) {
    transmissions += d.transmissions;
    collisions += d.collisions;
    retry_drops += d.retry_drops;
    queue_drops += d.queue_drops;
  }
  const std::uint64_t clean_attempts = transmissions - collisions;
  const double transfer_p =
      clean_attempts > 0 ? static_cast<double>(run.total_delivered()) /
                               static_cast<double>(clean_attempts)
                         : 0.0;
  const double hot_rate =
      s.noc.hot_die < run.per_die.size()
          ? static_cast<double>(run.per_die[s.noc.hot_die].delivered) /
                static_cast<double>(std::max<std::uint64_t>(run.slots, 1))
          : 0.0;

  ChunkRecord r;
  r.metrics = {run.carried_load(),
               run.delivery_ratio(),
               transfer_p,
               run.latency.mean_slots,
               run.latency.p99_slots,
               1.0 - static_cast<double>(run.idle_slots) /
                         static_cast<double>(std::max<std::uint64_t>(run.slots, 1)),
               run.fairness_index(),
               hot_rate,
               static_cast<double>(retry_drops),
               static_cast<double>(queue_drops)};
  r.rng_draws = run_rng.draws() + (phy_model ? phy_model->cumulative().rng_draws : 0);
  return r;
}

/// A point's hardware from a fresh copy of chunk 0's stream (the
/// `rng` argument), forked exactly as chunk 0's chunk function forks
/// its own. Pixel faults never reach here: they fold analytically into
/// the point's SPAD parameters (Poisson thinning), so faulted specs
/// still ride the batched window kernel.
using RealiseFn = PointHardware (*)(const ScenarioSpec&, RngStream& rng,
                                    const fault::Realisation* fr, std::size_t point_index);

/// One chunk of a workload: `samples` samples of the point-resolved
/// spec on the chunk stream, returned as the record the result store
/// saves (the runner fills in `samples`).
using ChunkFn = ChunkRecord (*)(const ScenarioSpec&, std::uint64_t samples, RngStream&,
                                const ChunkContext& ctx);

/// A topology's metric table beside the chunk function whose
/// ChunkRecord::metrics fill it, position for position, and the
/// realisation of the hardware its chunks share (nullptr where each
/// chunk builds its own).
struct Workload {
  std::vector<MetricDef> metrics;
  ChunkFn run_chunk = nullptr;
  RealiseFn realise = nullptr;
};

Workload workload_for(const ScenarioSpec& spec) {
  using K = MetricKind;
  switch (spec.topology) {
    case Topology::kPointToPoint:
      switch (spec.resolved_mode()) {
        case TrafficMode::kFrames:
          return {{{"delivery_rate", K::kRate},
                   {"corrections_per_transfer", K::kMean},
                   {"code_rate", K::kConstant}},
                  run_p2p_frames,
                  realise_link};
        case TrafficMode::kCodeDensity:
          // Whole-run order statistics: never chunk-merged (validate()
          // rejects adaptive precision for this mode), so the one chunk
          // builds its own delay line.
          return {{{"max_abs_dnl_lsb", K::kConstant},
                   {"max_abs_inl_lsb", K::kConstant},
                   {"lsb_ps", K::kConstant},
                   {"codes", K::kConstant}},
                  run_p2p_code_density};
        default:
          return {{{"ser", K::kRate},
                   {"ber", K::kRate},
                   {"erasure_rate", K::kRate},
                   {"noise_capture_rate", K::kRate},
                   {"slot_ps", K::kConstant},
                   {"raw_tp_bps", K::kMean},
                   {"goodput_bps", K::kMean},
                   {"energy_per_bit_j", K::kMean},
                   {"recalibrations", K::kCount}},
                  run_p2p_symbols,
                  realise_link};
      }
    case Topology::kWdm:
      // worst_ser is a per-window order statistic: adaptive chunks
      // treat each chunk's worst as one batch-means observation.
      return {{{"aggregate_gbps", K::kMean},
               {"per_channel_mbps", K::kMean},
               {"worst_ser", K::kMean},
               {"noise_captures", K::kCount},
               {"collected_short", K::kConstant},
               {"collected_long", K::kConstant}},
              run_wdm,
              realise_wdm};
    case Topology::kVerticalBus:
      return {{{"worst_ser", K::kMean},
               {"mean_ser", K::kRate},
               {"serviceable_dies", K::kConstant},
               {"aggregate_goodput_gbps", K::kConstant}},
              run_bus,
              realise_bus};
    case Topology::kStackNoc:
      return {{{"carried_load", K::kRate},
               {"delivery_ratio", K::kRate},
               {"transfer_p", K::kRate},
               {"mean_latency_slots", K::kMean},
               {"p99_slots", K::kMean},
               {"utilisation", K::kRate},
               {"fairness", K::kMean},
               {"hot_rate", K::kRate},
               {"retry_drops", K::kCount},
               {"queue_drops", K::kCount}},
              run_noc,
              realise_noc};
  }
  throw std::logic_error("scenario: unhandled topology");
}

}  // namespace

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kRate:
      return "rate";
    case MetricKind::kMean:
      return "mean";
    case MetricKind::kCount:
      return "count";
    case MetricKind::kConstant:
      return "constant";
  }
  return "unknown";
}

MetricKind metric_kind_from_string(const std::string& name) {
  if (name == "rate") return MetricKind::kRate;
  if (name == "mean") return MetricKind::kMean;
  if (name == "count") return MetricKind::kCount;
  if (name == "constant") return MetricKind::kConstant;
  throw std::invalid_argument("scenario: unknown metric kind '" + name + "'");
}

std::vector<MetricDef> metrics_for(const ScenarioSpec& spec) {
  return workload_for(spec).metrics;
}

void MetricState::add(double chunk_value, std::uint64_t samples) {
  switch (kind) {
    case MetricKind::kRate:
      rate.add(chunk_value, samples);
      break;
    case MetricKind::kMean:
      mean.add(chunk_value, samples);
      break;
    case MetricKind::kCount:
      value += chunk_value;
      break;
    case MetricKind::kConstant:
      value = chunk_value;
      break;
  }
}

bool MetricState::merge(const MetricState& other) {
  switch (kind) {
    case MetricKind::kRate:
      rate.merge(other.rate);
      break;
    case MetricKind::kMean:
      mean.merge(other.mean);
      break;
    case MetricKind::kCount:
      value += other.value;
      break;
    case MetricKind::kConstant:
      // Deterministic at the operating point: every run must have
      // observed the bitwise-same value.
      return value == other.value;
  }
  return true;
}

analysis::Estimate MetricState::estimate(double z, std::uint64_t samples) const {
  switch (kind) {
    case MetricKind::kRate:
      return rate.wilson(z);
    case MetricKind::kMean:
      return mean.interval(z);
    case MetricKind::kCount:
    case MetricKind::kConstant:
      break;
  }
  // A count is the extensive total over every chunk run so far -- the
  // same "whole run" semantics the fixed path reports.
  return analysis::Estimate{value, value, value, samples};
}

std::string RunPoint::label(const std::vector<std::string>& axis_names) const {
  if (coordinate.empty()) return "-";
  std::string out;
  for (std::size_t a = 0; a < coordinate.size(); ++a) {
    if (a > 0) out += "/";
    out += (a < axis_names.size() ? axis_names[a] : "axis") + "=" + coordinate[a];
  }
  return out;
}

void RunPoint::refresh(double z) {
  estimates.clear();
  metrics.clear();
  for (const MetricState& s : state) {
    estimates.push_back(s.estimate(z, samples));
    metrics.push_back(estimates.back().value);
  }
}

const RunPoint* RunReport::find(const std::string& label) const {
  for (const RunPoint& p : points) {
    if (p.label(axis_names) == label) return &p;
  }
  return nullptr;
}

double RunReport::metric(const RunPoint& point, const std::string& name) const {
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (metric_names[m] == name) return point.metrics.at(m);
  }
  throw std::out_of_range("scenario report '" + scenario + "' has no metric '" + name + "'");
}

const analysis::Estimate& RunReport::estimate(const RunPoint& point,
                                              const std::string& name) const {
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (metric_names[m] == name) return point.estimates.at(m);
  }
  throw std::out_of_range("scenario report '" + scenario + "' has no metric '" + name + "'");
}

util::Table RunReport::to_table() const {
  constexpr int kPrecision = 4;
  std::vector<std::string> headers = axis_names;
  headers.insert(headers.end(), metric_names.begin(), metric_names.end());
  util::Table t(headers);
  for (const RunPoint& p : points) {
    t.new_row();
    for (const std::string& c : p.coordinate) t.add_cell(c);
    for (std::size_t m = 0; m < p.metrics.size(); ++m) {
      const double v = p.metrics[m];
      // A rate with zero observed successes is NOT "0.0000": the Wilson
      // interval still bounds it, so render the one-sided upper bound
      // the estimate already carries ("<3.830e-03"). Still a pure
      // function of the point's deterministic fields (CI diffs rows).
      if (v == 0.0 && m < metric_kinds.size() && m < p.estimates.size() &&
          metric_kinds[m] == MetricKind::kRate && p.estimates[m].n_samples > 0 &&
          p.estimates[m].ci_high > 0.0) {
        std::ostringstream cell;
        cell << "<" << std::scientific << std::setprecision(kPrecision - 1)
             << p.estimates[m].ci_high;
        t.add_cell(cell.str());
        continue;
      }
      // Scientific notation for values spanning many decades (bit
      // rates, tiny error rates) keeps columns readable AND keeps the
      // rendering a pure function of the value (CI diffs row text).
      const double mag = std::fabs(v);
      if (v != 0.0 && (mag >= 1e5 || mag < 1e-3)) {
        t.add_sci(v, kPrecision);
      } else {
        t.add_cell(v, kPrecision);
      }
    }
  }
  return t;
}

void RunReport::print(std::ostream& os) const {
  os << "scenario " << scenario << ": topology=" << topology << ", seed=" << seed
     << ", points=" << points.size();
  // Unsharded output is byte-identical to the pre-service format, so
  // the CI 1-vs-8-thread stdout diffs stay meaningful.
  if (shard.active()) os << " of " << points_total << ", shard=" << shard.index
                         << "/" << shard.count;
  std::uint64_t total_samples = 0;
  for (const RunPoint& p : points) total_samples += p.samples;
  os << ", samples=" << total_samples << "\n";
  to_table().print(os);
}

RunReport ScenarioRunner::run(const ScenarioSpec& spec) const {
  return run(spec, RunOptions{});
}

RunReport ScenarioRunner::run(const ScenarioSpec& spec, const RunOptions& options) const {
  spec.validate();
  if (options.shard.count == 0 || options.shard.index >= options.shard.count) {
    throw std::invalid_argument("scenario: shard index " +
                                std::to_string(options.shard.index) +
                                " out of range for count " +
                                std::to_string(options.shard.count));
  }
  ScenarioSpec base = spec;
  base.seed = resolve_seed(spec.seed);
  apply_precision_overrides(base);
  base.validate();  // overrides must not smuggle in an invalid precision block

  RunReport report;
  report.scenario = base.name;
  report.description = base.description;
  report.seed = base.seed;
  report.repro_scale = analysis::repro_scale();
  report.topology = to_string(base.topology);
  report.adaptive = base.precision.enabled;
  // Hashed AFTER seed/precision overrides resolve: the hash names what
  // actually runs, not what the file said.
  report.spec_hash = spec_hash(base);
  report.confidence_z = base.precision.confidence_z;
  report.shard = options.shard;
  for (const SweepAxis& a : base.sweep) report.axis_names.push_back(a.param);
  const Workload workload = workload_for(base);
  const std::vector<MetricDef>& defs = workload.metrics;
  for (const MetricDef& d : defs) {
    report.metric_names.push_back(d.name);
    report.metric_kinds.push_back(d.kind);
  }

  sim::BatchConfig bc;
  bc.threads = threads_;
  bc.root_seed = base.seed;
  const sim::BatchRunner runner(bc);
  report.threads = runner.threads();
  report.engine_revision = kEngineRevision;

  // One state per sweep point; the fixed-budget path is the adaptive
  // path degenerated to a single mandatory chunk, so both produce the
  // same estimate structure. Chunks accumulate straight into `out`, the
  // RunPoint the report carries.
  struct PointState {
    bool init = false;
    bool stopped = false;
    ScenarioSpec point;
    fault::Realisation fr;
    bool faulted = false;
    std::uint64_t fault_draws = 0;
    /// Realised on the point's first simulated chunk and dropped when
    /// the point stops: a point served wholly from the cache builds none.
    std::optional<PointHardware> hw;
    analysis::StoppingRule rule;
    double z = 1.96;
    std::uint64_t chunk_size = 0;
    std::size_t target = 0;
    RunPoint out;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_save_failures = 0;
    bool realised = false;
  };

  const bool adaptive = base.precision.enabled;
  const std::size_t n = base.sweep_points();
  report.points_total = n;
  // Shard i of N owns global points {i, i+N, i+2N, ...}. Streams (and
  // therefore cache keys) derive from the GLOBAL index, so a shard's
  // results are bit-identical to the same points of an unsharded run.
  std::vector<std::size_t> point_ids;
  for (std::size_t g = options.shard.index; g < n; g += options.shard.count) {
    point_ids.push_back(g);
  }
  const ResultStore* store = options.store;
  const std::string label = "scenario:" + base.name;
  auto results = runner.map_until<PointState>(
      point_ids, label,
      [&](std::size_t i, std::size_t chunk, RngStream& rng, PointState& st) {
        RunPoint& p = st.out;
        if (!st.init) {
          st.point = base;
          p.point_index = i;
          const std::vector<std::size_t> idx = unravel(i, base.sweep);
          for (std::size_t a = 0; a < base.sweep.size(); ++a) {
            apply_axis_value(st.point, base.sweep[a], idx[a]);
            p.coordinate.push_back(base.sweep[a].display(idx[a]));
          }
          // Re-validate after axis application: a sweep can push the
          // spec into an invalid corner (e.g. channels = 0).
          st.point.validate();
          if (st.point.fault.any()) {
            // Realise the point's faults from a dedicated stream keyed
            // by (seed, GLOBAL point index, salt) -- independent of the
            // chunk streams, so the same degraded hardware is simulated
            // regardless of thread count, sharding or chunking.
            fault::Context ctx;
            if (st.point.topology == Topology::kWdm) {
              ctx.wdm_channels = st.point.wdm.grid.channels;
            }
            if (st.point.topology == Topology::kStackNoc) {
              ctx.noc_dies = st.point.noc.dies;
            }
            RngStream frng(base.seed, "fault/" + std::to_string(i) + "/" +
                                          std::to_string(st.point.fault.salt));
            st.fr = fault::realise(st.point.fault, ctx, frng);
            st.fault_draws = frng.draws();
            st.faulted = true;
            if (st.point.fault.pixel_active()) {
              // Poisson thinning folds the faulted array into the SPAD
              // parameters, so pixel-faulted points keep riding the
              // batched window kernel untouched.
              auto& spad = st.point.device.spad;
              spad.pdp_peak *= st.fr.pixels.pdp_scale();
              spad.dcr_at_ref = util::Frequency::hertz(
                  spad.dcr_at_ref.hertz() * st.fr.pixels.dcr_scale() +
                  st.fr.pixels.extra_dcr_hz());
            }
          }
          const PrecisionSpec& prec = st.point.precision;
          if (adaptive) {
            st.z = prec.confidence_z;
            st.chunk_size = prec.resolve_chunk(st.point.budget);
            st.rule.target_half_width = prec.target_half_width;
            st.rule.target_relative = prec.target_relative;
            st.rule.stop_below = prec.stop_below;
            st.rule.min_samples = prec.resolve_min(st.point.budget);
            st.rule.max_samples = prec.resolve_max(st.point.budget);
            st.target = stop_metric_index(defs, prec.metric);
          } else {
            // Fixed budget: one chunk of exactly the resolved samples.
            st.chunk_size = st.point.budget.resolve();
            st.rule.max_samples = st.chunk_size;
          }
          for (const MetricDef& d : defs) p.state.emplace_back(d.kind);
          p.chunks = 0;  // RunPoint's default of 1 describes a finished fixed budget
          st.init = true;
        }
        // max_samples is a HARD cap: the final chunk shrinks to land on
        // it exactly instead of overshooting by up to chunk-1 samples.
        // (A single short tail chunk is a negligible deviation from the
        // batch-means equal-size assumption.)
        std::uint64_t run_samples = st.chunk_size;
        if (st.rule.max_samples > p.samples) {
          run_samples = std::min(run_samples, st.rule.max_samples - p.samples);
        }
        // Chunk (point i, ordinal `chunk`) is a pure function of the
        // store key: consult the cache, simulate only on miss. A hit
        // must match the samples this run would execute (a different
        // repro scale or precision override re-keys via the hash, but a
        // corrupt/truncated entry must never slip through).
        ChunkKey key;
        std::optional<ChunkRecord> r;
        if (store != nullptr) {
          key = ChunkKey{report.spec_hash, base.seed, i, chunk};
          // A rare-event point's record must carry weight state (the
          // sum of weights is positive by construction): a record
          // missing it is stale or torn, never a hit.
          if (auto rec = store->load(key);
              rec && rec->samples == run_samples && rec->metrics.size() == defs.size() &&
              (!st.point.variance.active() || rec->weight_sum > 0.0)) {
            r = std::move(rec);
          }
        }
        if (r) {
          ++st.cache_hits;
        } else {
          const auto t0 = std::chrono::steady_clock::now();
          const fault::Realisation* fr = st.faulted ? &st.fr : nullptr;
          if (!st.hw) {
            // Always from a fresh chunk-0 stream: chunk 0 builds the
            // device it would build on its own, and no chunk's draws
            // depend on which chunk realised the hardware.
            st.hw.emplace();
            if (workload.realise != nullptr) {
              RngStream chunk0 = runner.task_stream(label, i, 0);
              *st.hw = workload.realise(st.point, chunk0, fr, i);
              st.realised = true;
            }
          }
          r = workload.run_chunk(st.point, run_samples, rng,
                                 ChunkContext{.hw = *st.hw, .fr = fr, .point = i, .chunk = chunk});
          if (chunk == 0) {
            // The point's one-off draws (fault realisation, hardware)
            // land on chunk 0 exactly once.
            r->rng_draws += st.fault_draws + st.hw->rng_draws;
          }
          p.wall_ns += std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
          r->samples = run_samples;
          if (store != nullptr) {
            ++st.cache_misses;
            if (!store->save(key, *r)) {
              ++st.cache_save_failures;
              warn_save_failure_once();
            }
          }
        }
        for (std::size_t m = 0; m < defs.size(); ++m) {
          p.state[m].add(r->metrics[m], run_samples);
        }
        if (r->weight_sum > 0.0) {
          p.weights.merge(analysis::WeightStats::from_state(
              r->weight_sum, r->weight_sum_sq, run_samples));
          p.err_weight_sq += r->err_weight_sq;
        }
        p.samples += run_samples;
        ++p.chunks;
        p.rng_draws += r->rng_draws;
        st.stopped = st.rule.should_stop(p.state[st.target].estimate(st.z, p.samples));
        if (st.stopped) st.hw.reset();
      },
      [](std::size_t /*i*/, const PointState& st) { return st.stopped; });

  // Export the pooled state itself, with its estimates: merge pools
  // THIS, then recomputes the intervals -- it never averages estimates.
  report.points.reserve(results.size());
  for (PointState& st : results) {
    st.out.refresh(st.z);
    report.cache_hits += st.cache_hits;
    report.cache_misses += st.cache_misses;
    report.cache_save_failures += st.cache_save_failures;
    if (st.realised) ++report.points_realised;
    report.points.push_back(std::move(st.out));
  }
  return report;
}

}  // namespace oci::scenario
