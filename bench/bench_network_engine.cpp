// Microbenchmarks for the multi-source LinkEngine across the
// interference-bearing system paths: one victim window merged with
// co-channel aggressor pulses (engine k-way hazard merge vs the
// materialise/sort/thin reference pipeline), full WDM windows, the
// photon-level vertical-bus broadcast and contended-upstream paths,
// the LinkEngine-coupled NoC slot simulation, the scalar NoC slot
// loop at 64-1024 dies and the CAC allocation of those stacks. The
// binary writes the stable-schema BENCH_network.json trajectory
// document (see support/bench_json.hpp) that CI uploads and diffs
// across runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/bench_json.hpp"

#include "oci/bus/vertical_bus.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"
#include "oci/link/wdm_link.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/stack_network.hpp"

namespace {

using namespace oci;
using photonics::PhotonArrival;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080615;

// ---------- interference: K aggressors on one link ----------

link::OpticalLinkConfig victim_config() {
  link::OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.channel_transmittance = 0.5;
  c.led.peak_power = util::Power::microwatts(50.0);  // bright: worst case for the reference
  c.spad.dcr_at_ref = util::Frequency::hertz(100.0);
  c.calibrate = false;  // construction kept out of the timed region
  return c;
}

constexpr std::size_t kAggressors = 4;
constexpr double kAggressorMean = 6.0;  // leaked photons per aggressor pulse

/// Window-local starts of the aggressor pulses, scattered across the
/// victim's window the way neighbouring channels' PPM symbols land.
std::array<Time, kAggressors> aggressor_starts(const link::OpticalLink& link) {
  std::array<Time, kAggressors> starts{};
  for (std::size_t k = 0; k < kAggressors; ++k) {
    starts[k] = link.toa_window() * (static_cast<double>(k + 1) / (kAggressors + 1.0));
  }
  return starts;
}

// One op = kSymbols windows through the window driver with the
// aggressors merged; divide ns_per_op by symbols_per_op to compare a
// window against BM_InterferenceReferenceSymbol.
void BM_InterferenceEngineMeasure(benchmark::State& state) {
  constexpr std::size_t kSymbols = 256;
  RngStream process(kSeed, "int-engine-link");
  const link::OpticalLink link(victim_config(), process);
  const link::LinkEngine engine(link);
  std::array<double, kAggressors> means{};
  means.fill(kAggressorMean);
  std::vector<double> starts;
  for (std::size_t i = 0; i < kSymbols; ++i) {
    for (const Time start : aggressor_starts(link)) starts.push_back(start.seconds());
  }
  const link::WindowInputs in{.aggressor_means = means, .aggressor_starts_s = starts};
  RngStream tx(kSeed, "int-engine-tx");
  std::uint64_t lane_draws = 0;
  const std::uint64_t draws_before = tx.draws();
  for (auto _ : state) {
    const link::LinkRunStats stats = engine.measure(kSymbols, tx, in);
    lane_draws += stats.rng_draws;
    benchmark::DoNotOptimize(stats.symbol_errors);
  }
  // The TDC conversions' draws on `tx` plus the windows' kernel-lane draws.
  state.counters["rng_draws"] =
      benchmark::Counter(static_cast<double>(tx.draws() - draws_before + lane_draws),
                         benchmark::Counter::kAvgIterations);
  state.counters["symbols_per_op"] = benchmark::Counter(static_cast<double>(kSymbols));
}
BENCHMARK(BM_InterferenceEngineMeasure);

void BM_InterferenceReferenceSymbol(benchmark::State& state) {
  RngStream process(kSeed, "int-ref-link");
  const link::OpticalLink link(victim_config(), process);
  const std::array<Time, kAggressors> starts = aggressor_starts(link);
  RngStream tx(kSeed, "int-ref-tx");
  link::LinkRunStats stats;
  Time dead_until = Time::zero();
  const std::uint64_t draws_before = tx.draws();
  for (auto _ : state) {
    // The old consumer-side recipe: materialise every leaked photon,
    // sort, and hand the vector to the per-photon reference pipeline.
    std::vector<PhotonArrival> interference;
    for (const Time start : starts) {
      const auto n = tx.poisson(kAggressorMean);
      for (std::int64_t p = 0; p < n; ++p) {
        const Time offset = link.led().sample_emission_time(tx.uniform());
        interference.push_back(PhotonArrival{start + offset, /*is_signal=*/false});
      }
    }
    std::sort(interference.begin(), interference.end(),
              [](const PhotonArrival& x, const PhotonArrival& y) { return x.time < y.time; });
    benchmark::DoNotOptimize(link.transmit_symbol_reference(
        17, Time::zero(), dead_until, stats, tx, std::move(interference)));
    dead_until = Time::zero();
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(tx.draws() - draws_before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_InterferenceReferenceSymbol);

// ---------- WDM: full crosstalk-coupled windows ----------

link::WdmLinkConfig wdm_config() {
  link::WdmLinkConfig c;
  c.grid.channels = 4;
  c.base.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.base.bits_per_symbol = 6;
  c.base.led.peak_power = util::Power::microwatts(2.0);
  c.base.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  c.base.calibrate = false;
  c.path_transmittance = 0.3;
  c.filter.adjacent_isolation_db = 20.0;  // leaky demux: aggressors actually land
  return c;
}

void BM_WdmEngineWindow(benchmark::State& state) {
  RngStream process(kSeed, "wdm-engine");
  const link::WdmLink wdm(wdm_config(), process);
  RngStream tx(kSeed, "wdm-engine-tx");
  std::uint64_t draws = 0;
  const std::uint64_t draws_before = tx.draws();
  for (auto _ : state) {
    const link::WdmLink::RunResult run = wdm.measure(4, tx);
    // Kernel-lane draws of every channel's windows.
    for (const auto& chan : run.per_channel) draws += chan.stats.rng_draws;
    benchmark::DoNotOptimize(run.per_channel.size());
  }
  state.counters["rng_draws"] =
      benchmark::Counter(static_cast<double>(tx.draws() - draws_before + draws),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WdmEngineWindow);

void BM_WdmReferenceWindow(benchmark::State& state) {
  RngStream process(kSeed, "wdm-ref");
  const link::WdmLink wdm(wdm_config(), process);
  RngStream tx(kSeed, "wdm-ref-tx");
  const std::uint64_t draws_before = tx.draws();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wdm.measure_reference(4, tx).per_channel.size());
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(tx.draws() - draws_before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WdmReferenceWindow);

// ---------- vertical bus: broadcast + contended upstream ----------

bus::VerticalBusConfig bus_config() {
  bus::VerticalBusConfig c;
  c.dies = 4;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.led.wavelength = util::Wavelength::nanometres(850.0);
  c.led.peak_power = util::Power::microwatts(200.0);
  c.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  return c;
}

void BM_BusBroadcast(benchmark::State& state) {
  const bus::VerticalBus vbus(bus_config());
  RngStream process(kSeed, "bus-receivers");
  const bus::BusReceivers receivers = vbus.build_receivers(process);
  RngStream rng(kSeed, "bus-broadcast");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vbus.monte_carlo_broadcast(receivers, 256, rng).per_die.size());
  }
}
BENCHMARK(BM_BusBroadcast);

void BM_BusContention(benchmark::State& state) {
  const bus::VerticalBus vbus(bus_config());
  const std::array<std::size_t, 3> talkers{1, 2, 3};
  RngStream rng(kSeed, "bus-contention");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vbus.monte_carlo_upstream_contention(talkers, 256, rng).noise_captures);
  }
}
BENCHMARK(BM_BusContention);

// ---------- NoC: LinkEngine-coupled slot simulation ----------

void BM_NocCoupledSlots(benchmark::State& state) {
  RngStream process(kSeed, "noc-link");
  const link::OpticalLink phy_link(victim_config(), process);
  link::SymbolDeliveryModel phy(phy_link);

  net::StackNetworkConfig cfg;
  cfg.dies = 8;
  cfg.traffic.resize(cfg.dies);
  for (auto& t : cfg.traffic) {
    t.packets_per_slot = 0.08;
    t.uniform_destinations = true;
  }
  cfg.delivery_model = [&phy](const net::Packet& p, RngStream& rng) {
    return phy.deliver(p.payload_bytes, rng);
  };
  net::StackNetwork netw(cfg, std::make_unique<net::TokenMac>(cfg.dies, 0));
  RngStream rng(kSeed, "noc-run");
  const std::uint64_t draws_before = rng.draws();
  for (auto _ : state) {
    benchmark::DoNotOptimize(netw.run(100, rng).total_delivered());
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(rng.draws() - draws_before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NocCoupledSlots);

// ---------- NoC: slot loop at scale ----------

// Uniform traffic at 1.4 offered packets/slot over TDMA with scalar
// delivery, the noc_thousand_node shape. One op is a 1000-slot run on
// a network whose queues persist across ops; per-slot cost and draws
// follow the arrivals and grants, so 1024 dies should cost about what
// 64 do.
void BM_NocSlots(benchmark::State& state) {
  constexpr std::uint64_t kSlots = 1000;
  const auto dies = static_cast<std::size_t>(state.range(0));
  net::StackNetworkConfig cfg;
  cfg.dies = dies;
  cfg.traffic.resize(dies);
  for (auto& t : cfg.traffic) {
    t.packets_per_slot = 1.4 / static_cast<double>(dies);
    t.uniform_destinations = true;
  }
  net::StackNetwork netw(cfg, std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(dies)));
  RngStream rng(kSeed, "noc-slots");
  const std::uint64_t draws_before = rng.draws();
  for (auto _ : state) {
    benchmark::DoNotOptimize(netw.run(kSlots, rng).total_delivered());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSlots));
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(rng.draws() - draws_before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NocSlots)->Arg(64)->Arg(256)->Arg(1024);

// ---------- NoC: CAC allocation at scale ----------

// The noc_thousand_node schedule: 4 wavelengths, weight 2, up to 8
// refinement rounds. One op is one whole allocation from the same
// stream seed, so every op does the same work.
void BM_CacAllocate(benchmark::State& state) {
  net::cac::AllocConfig ac;
  ac.nodes = static_cast<std::size_t>(state.range(0));
  ac.wavelengths = 4;
  ac.weight = 2;
  ac.rounds = 8;
  const net::cac::DistributedAllocator allocator(ac);
  for (auto _ : state) {
    RngStream rng(kSeed, "alloc/0");
    benchmark::DoNotOptimize(allocator.allocate(rng).conflict_mass);
  }
}
BENCHMARK(BM_CacAllocate)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return oci::benchsupport::run_and_export(argc, argv, "bench_network_engine",
                                           "BENCH_network.json");
}
