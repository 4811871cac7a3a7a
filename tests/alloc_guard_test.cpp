// Allocation-count guard for the sweep hot loops.
//
// The whole point of the LinkEngine (and its multi-source
// generalisation) is that a symbol window costs a handful of RNG draws
// and ZERO heap traffic, so BatchRunner sweeps scale with arithmetic,
// not with the allocator. This binary replaces global operator
// new/delete with counting wrappers and pins that property for the
// hot loops sweeps actually run:
//
//   * the single-source run_symbols driver (abl_scaling, abl_fec) and
//     the batched window kernel under it,
//   * the same driver with per-window inputs: aggressor pulses (WdmLink,
//     bus contention), a rare-event proposal on independent windows
//     (oci::rare drivers) and launch scales (dark/flaky windows),
//   * the LinkEngine-coupled NoC delivery model (StackNetwork sweeps),
//   * MAC arbitration, which fills the policy's own outcome buffer.
//
// After a warm-up pass (which may size scratch buffers), the loops
// must perform no allocation at all. Under ASan/UBSan the sanitizer
// owns the allocator, so the counting assertions are skipped there
// (the loops still run, keeping the binary exercised).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/mac.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define OCI_ALLOC_GUARD_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OCI_ALLOC_GUARD_ACTIVE 0
#else
#define OCI_ALLOC_GUARD_ACTIVE 1
#endif
#else
#define OCI_ALLOC_GUARD_ACTIVE 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if OCI_ALLOC_GUARD_ACTIVE

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // OCI_ALLOC_GUARD_ACTIVE

namespace {

using namespace oci;
using link::LinkEngine;
using link::LinkRunStats;
using link::OpticalLink;
using link::OpticalLinkConfig;
using util::Frequency;
using util::Power;
using util::RngStream;
using util::Time;

OpticalLinkConfig guard_config() {
  OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.channel_transmittance = 0.5;
  c.led.peak_power = Power::microwatts(50.0);
  c.spad.dcr_at_ref = Frequency::kilohertz(5.0);
  c.spad.afterpulse_probability = 0.01;
  c.background_rate = Frequency::megahertz(1.0);
  c.calibrate = false;
  return c;
}

void expect_no_allocations(std::uint64_t before, std::uint64_t after, const char* what) {
#if OCI_ALLOC_GUARD_ACTIVE
  EXPECT_EQ(after - before, 0u) << what << " allocated " << (after - before)
                                << " times in the hot loop";
#else
  (void)before;
  (void)after;
  GTEST_SKIP() << "allocation counting disabled under sanitizers (" << what << ")";
#endif
}

TEST(AllocGuard, SingleSourceSymbolLoopIsAllocationFree) {
  RngStream process(1201);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1203);

  (void)engine.measure(64, tx);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const LinkRunStats stats = engine.measure(1024, tx);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, 1024u);
  expect_no_allocations(before, after, "single-source run_symbols");
}

TEST(AllocGuard, BatchedWindowKernelIsAllocationFree) {
  RngStream process(1231);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  const util::BatchRngStream lanes(0xA110Cull, "alloc-guard");

  // Direct batched-kernel loop: the shape ScenarioRunner's chunked
  // map drives. One scratch + one staging vector, reused per batch. No
  // warm-up: the kernel keeps every lane's state on the stack, so even
  // the first batch must not allocate.
  link::EngineBatchScratch scratch;
  std::vector<link::WindowResult> windows(LinkEngine::kEngineBatch);
  const auto stage = [&](std::uint64_t first_lane) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      windows[i] = link::WindowResult{};
      windows[i].pulse_start_s =
          link.ppm().encode((first_lane + i) % 32).seconds();
    }
  };

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::uint64_t fired = 0;
  for (std::uint64_t batch = 0; batch < 16; ++batch) {
    stage(batch * windows.size());
    engine.simulate_windows(windows, lanes, scratch, batch * windows.size());
    for (const link::WindowResult& w : windows) fired += w.fired ? 1 : 0;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_GT(fired, 0u);
  expect_no_allocations(before, after, "simulate_windows batch loop");
}

/// No-op reducer of the driver runs below.
void ignore(std::size_t, const LinkEngine::SymbolOutcome&) {}

TEST(AllocGuard, AggressorDriverIsAllocationFree) {
  RngStream process(1213);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1217);

  // The WDM / bus-contention shape: three aggressors whose starts move
  // from window to window; the engine reuses one batch of source states.
  constexpr std::size_t kWindows = 1024;
  std::vector<std::uint64_t> symbols(kWindows);
  std::vector<double> starts(3 * kWindows);
  const double window_s = link.toa_window().seconds();
  for (std::size_t i = 0; i < kWindows; ++i) {
    symbols[i] = i % 32;
    for (std::size_t k = 0; k < 3; ++k) {
      starts[3 * i + k] = window_s * (0.2 + 0.25 * static_cast<double>((i + k) % 3));
    }
  }
  const std::array<double, 3> means{6.0, 6.0, 6.0};
  const link::WindowInputs in{.aggressor_means = means, .aggressor_starts_s = starts};
  // Warm-up: sizes the engine's source states.
  (void)engine.run_sequence(
      std::span(symbols).first(16), tx, ignore,
      {.aggressor_means = means, .aggressor_starts_s = std::span(starts).first(3 * 16)});

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const LinkRunStats stats = engine.run_sequence(symbols, tx, ignore, in);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, kWindows);
  EXPECT_GT(stats.noise_captures, 0u);  // the aggressors really fired
  expect_no_allocations(before, after, "aggressor driver run");
}

TEST(AllocGuard, RareProposalDriverIsAllocationFree) {
  RngStream process(1237);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1239);

  // oci::rare's shape: i.i.d. windows under a jitter and noise tilt,
  // the log likelihood-ratio read back per window.
  link::RareSampling proposal;
  proposal.jitter_scale = 2.0;
  proposal.noise_scale = 3.0;
  const link::WindowInputs in{.rare = &proposal, .independent = true};
  double log_weight_sum = 0.0;
  const auto weigh = [&](std::uint64_t, const LinkEngine::SymbolOutcome& out) {
    log_weight_sum += out.log_weight;
  };
  (void)engine.run_symbols(16, tx, weigh, in);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const LinkRunStats stats = engine.run_symbols(1024, tx, weigh, in);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, 1024u);
  EXPECT_NE(log_weight_sum, 0.0);  // the proposal really tilted
  expect_no_allocations(before, after, "rare-proposal driver run");
}

TEST(AllocGuard, LaunchScaleDriverIsAllocationFree) {
  RngStream process(1241);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1243);

  // The runner's dark/flaky-window shape: a launch scale per window.
  std::vector<double> scale(1024);
  for (std::size_t i = 0; i < scale.size(); ++i) scale[i] = std::array{1.0, 0.0, 0.4}[i % 3];
  const link::WindowInputs in{.signal_scale = scale};
  (void)engine.measure(16, tx, {.signal_scale = std::span(scale).first(16)});  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const LinkRunStats stats = engine.measure(scale.size(), tx, in);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, scale.size());
  EXPECT_GT(stats.erasures, scale.size() / 4);  // the dark windows erase
  expect_no_allocations(before, after, "launch-scale driver run");
}

TEST(AllocGuard, NocDeliveryModelLoopIsAllocationFree) {
  RngStream process(1223);
  const OpticalLink link(guard_config(), process);
  link::SymbolDeliveryModel phy(link);
  RngStream rng(1229);

  (void)phy.deliver(8, rng);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 512; ++i) {
    delivered += phy.deliver(8, rng) ? 1 : 0;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_GT(phy.cumulative().symbols_sent, 512u);
  expect_no_allocations(before, after, "NoC symbol-delivery loop");
}

TEST(AllocGuard, MacArbitrationIsAllocationFree) {
  // Every policy the slot loop runs, on backlog patterns that change
  // from slot to slot: after one warm-up frame, arbitration refills
  // the policy's outcome buffer and allocates nothing.
  constexpr std::size_t kDies = 40;
  const auto cac_mac = [](std::size_t nodes) {
    net::cac::AllocConfig ac;
    ac.nodes = nodes;
    ac.wavelengths = 2;
    ac.weight = 2;
    ac.rounds = 0;  // random phases, unrefined: slots with collisions
    RngStream rng(1249, "alloc/0");
    return std::make_unique<net::CacMac>(net::cac::DistributedAllocator(ac).allocate(rng));
  };
  std::vector<std::size_t> members;
  for (std::size_t die = 0; die < kDies; ++die) {
    if (die % 5 != 2) members.push_back(die);
  }
  std::vector<std::unique_ptr<net::MacPolicy>> policies;
  policies.push_back(std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(kDies)));
  policies.push_back(std::make_unique<net::TokenMac>(kDies, 2));
  policies.push_back(std::make_unique<net::AlohaMac>(0.1));
  policies.push_back(cac_mac(kDies));
  policies.push_back(
      std::make_unique<net::SubsetMac>(cac_mac(members.size()), members, kDies));

  std::array<std::vector<bool>, 4> patterns;
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    patterns[k].resize(kDies);
    for (std::size_t die = 0; die < kDies; ++die) {
      patterns[k][die] = (die * 7 + k * 3) % 4 != 0;
    }
  }
  for (const auto& mac : policies) {
    RngStream rng(1251);
    constexpr std::uint64_t kWarmUp = 1000;  // past a CAC frame over 40 dies
    const auto backlog = [&](std::uint64_t slot) -> const std::vector<bool>& {
      return patterns[slot % patterns.size()];
    };
    for (std::uint64_t slot = 0; slot < kWarmUp; ++slot) {
      (void)mac->arbitrate_slot(slot, backlog(slot), rng);
    }
    std::uint64_t clean = 0;
    std::uint64_t collided = 0;
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t slot = kWarmUp; slot < kWarmUp + 10000; ++slot) {
      const net::SlotOutcome& out = mac->arbitrate_slot(slot, backlog(slot), rng);
      clean += out.clean.size();
      collided += out.collided.size();
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_GT(clean, 0u) << mac->name();
    const std::string_view name = mac->name();
    if (name != "tdma" && name != "token") {
      EXPECT_GT(collided, 0u) << name;  // ALOHA and the unrefined CAC collide
    }
    expect_no_allocations(before, after, mac->name());
  }
}

}  // namespace
