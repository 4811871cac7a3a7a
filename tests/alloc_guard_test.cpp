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
//   * the multi-source interference window loop (WdmLink / bus
//     contention inner loop),
//   * the rare-event proposal window loop (oci::rare drivers),
//   * the LinkEngine-coupled NoC delivery model (StackNetwork sweeps).
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
#include <new>

#include "oci/link/link_engine.hpp"
#include "oci/link/symbol_delivery.hpp"

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
using link::SourcePulse;
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

TEST(AllocGuard, MultiSourceInterferenceLoopIsAllocationFree) {
  RngStream process(1213);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1217);

  // The WDM / bus-contention inner loop shape: a fixed-size aggressor
  // set rebuilt per window; the engine reuses its source states.
  std::array<SourcePulse, 3> aggressors{};
  LinkRunStats stats;
  Time t = Time::zero();
  Time dead_until = Time::zero();
  const Time window = link.toa_window();

  const auto run_windows = [&](int count) {
    for (int i = 0; i < count; ++i) {
      for (std::size_t k = 0; k < aggressors.size(); ++k) {
        aggressors[k] =
            SourcePulse{6.0, t + window * (0.2 + 0.25 * static_cast<double>(k))};
      }
      (void)engine.transmit_symbol(static_cast<std::uint64_t>(i % 32), t, dead_until, stats,
                                   tx, {.aggressors = aggressors});
      t += link.symbol_period();
    }
  };

  run_windows(16);  // warm-up: sizes the engine's source states

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run_windows(1024);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, 16u + 1024u);
  expect_no_allocations(before, after, "multi-source window loop");
}

TEST(AllocGuard, RareProposalSymbolLoopIsAllocationFree) {
  RngStream process(1237);
  const OpticalLink link(guard_config(), process);
  const LinkEngine engine(link);
  RngStream tx(1239);

  // oci::rare's inner loop shape: i.i.d. windows under a jitter and
  // noise tilt, the log likelihood-ratio read back per window.
  link::RareSampling proposal;
  proposal.jitter_scale = 2.0;
  proposal.noise_scale = 3.0;
  LinkRunStats stats;
  double log_weight_sum = 0.0;
  const auto run_windows = [&](int count) {
    for (int i = 0; i < count; ++i) {
      Time dead_until = Time::zero();
      (void)engine.transmit_symbol(static_cast<std::uint64_t>(i % 32), Time::zero(),
                                   dead_until, stats, tx, {.rare = &proposal});
      log_weight_sum += proposal.log_weight;
    }
  };

  run_windows(16);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run_windows(1024);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(stats.symbols_sent, 16u + 1024u);
  EXPECT_NE(log_weight_sum, 0.0);  // the proposal really tilted
  expect_no_allocations(before, after, "rare-proposal window loop");
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

}  // namespace
