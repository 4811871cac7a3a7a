// The fault-injection subsystem: deterministic realisation, the SPAD
// pixel-fault fold, MAC re-arbitration over survivors, NoC routing
// around dead dies, and end-to-end faulted scenario runs that must be
// bit-identical across thread counts while degrading monotonically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "oci/fault/fault.hpp"
#include "oci/net/mac.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/util/random.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;

// ---------- realisation primitives ----------

TEST(Fault, PickCountRoundsDeterministically) {
  EXPECT_EQ(fault::pick_count(64, 0.0), 0u);
  EXPECT_EQ(fault::pick_count(64, 0.5), 32u);
  EXPECT_EQ(fault::pick_count(64, 1.0), 64u);
  EXPECT_EQ(fault::pick_count(8, 0.4), 3u);   // round(3.2)
  EXPECT_EQ(fault::pick_count(8, 0.45), 4u);  // round(3.6)
  EXPECT_EQ(fault::pick_count(0, 0.7), 0u);
  // Never exceeds n even with rounding at the top.
  EXPECT_EQ(fault::pick_count(3, 0.999), 3u);
}

TEST(Fault, PickSubsetIsExactSortedUniqueAndDrawCounted) {
  RngStream rng(101);
  const auto sub = fault::pick_subset(50, 12, rng);
  EXPECT_EQ(rng.draws(), 12u);  // exactly k draws: chunk accounting relies on it
  ASSERT_EQ(sub.size(), 12u);
  EXPECT_TRUE(std::is_sorted(sub.begin(), sub.end()));
  EXPECT_EQ(std::adjacent_find(sub.begin(), sub.end()), sub.end());
  for (const std::uint32_t v : sub) EXPECT_LT(v, 50u);

  // k == n selects everyone; k == 0 selects no one and draws nothing.
  RngStream all_rng(103);
  const auto all = fault::pick_subset(5, 5, all_rng);
  EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  RngStream none_rng(107);
  EXPECT_TRUE(fault::pick_subset(5, 0, none_rng).empty());
  EXPECT_EQ(none_rng.draws(), 0u);
}

TEST(Fault, RealiseIsDeterministicAndSaltSensitive) {
  fault::FaultSpec spec;
  spec.dead_pixel_fraction = 0.25;
  spec.hot_pixel_fraction = 0.125;
  spec.array_pixels = 64;
  spec.dead_channel_fraction = 0.5;
  spec.channel_attenuation_db = 3.0;
  spec.dead_node_fraction = 0.25;
  spec.link_failure_probability = 0.3;
  fault::Context ctx;
  ctx.wdm_channels = 8;
  ctx.noc_dies = 8;

  // Identical streams -> identical realisations, field for field.
  RngStream a(42, "fault/0/0");
  RngStream b(42, "fault/0/0");
  const fault::Realisation ra = fault::realise(spec, ctx, a);
  const fault::Realisation rb = fault::realise(spec, ctx, b);
  EXPECT_EQ(a.draws(), b.draws());
  EXPECT_EQ(ra.channel_scale, rb.channel_scale);
  EXPECT_EQ(ra.dead_nodes, rb.dead_nodes);
  EXPECT_EQ(ra.broken_links, rb.broken_links);
  EXPECT_EQ(ra.pixels.dead, rb.pixels.dead);
  EXPECT_EQ(ra.pixels.hot, rb.pixels.hot);

  // The realised shape honours the spec: exact counts, exact scales.
  EXPECT_EQ(ra.pixels.dead, 16u);
  EXPECT_EQ(ra.pixels.hot, 8u);
  EXPECT_EQ(std::count(ra.channel_scale.begin(), ra.channel_scale.end(), 0.0), 4);
  EXPECT_EQ(std::count(ra.dead_nodes.begin(), ra.dead_nodes.end(), 1), 2);
  EXPECT_EQ(ra.live_nodes(), 6u);

  // A different salt (i.e. a differently keyed stream) draws a
  // different concrete realisation of the same spec.
  RngStream c(42, "fault/0/1");
  const fault::Realisation rc = fault::realise(spec, ctx, c);
  EXPECT_TRUE(rc.dead_nodes != ra.dead_nodes || rc.channel_scale != ra.channel_scale ||
              rc.broken_links != ra.broken_links);
}

TEST(Fault, PixelFoldArithmetic) {
  fault::PixelFaults pf;
  pf.pixels = 64;
  pf.dead = 16;
  pf.hot = 8;
  pf.hot_dcr_hz = 1.0e6;

  pf.masked = true;  // masked hot pixels lose area AND go silent
  EXPECT_DOUBLE_EQ(pf.pdp_scale(), 40.0 / 64.0);
  EXPECT_DOUBLE_EQ(pf.dcr_scale(), 40.0 / 64.0);
  EXPECT_DOUBLE_EQ(pf.extra_dcr_hz(), 0.0);

  pf.masked = false;  // unmasked: keep the area, pay the screaming
  EXPECT_DOUBLE_EQ(pf.pdp_scale(), 48.0 / 64.0);
  EXPECT_DOUBLE_EQ(pf.extra_dcr_hz(), 8.0e6);

  const fault::PixelFaults clean;
  EXPECT_DOUBLE_EQ(clean.pdp_scale(), 1.0);
  EXPECT_DOUBLE_EQ(clean.dcr_scale(), 1.0);
}

// ---------- MAC re-arbitration over survivors ----------

TEST(Fault, SubsetMacGrantsOnlyLiveDies) {
  // 6-die stack, dies {1, 3, 4} dead. The token ring over the
  // survivors must never grant a dead die, even when the dead die
  // claims backlog (stale queue state), and grants map back to FULL
  // die indices.
  auto inner = std::make_unique<net::TokenMac>(3, 0);
  net::SubsetMac mac(std::move(inner), {0, 2, 5}, 6);
  RngStream rng(233);
  const std::vector<bool> all(6, true);  // includes dead dies
  for (std::uint64_t slot = 0; slot < 6; ++slot) {
    const net::SlotGrant g = mac.arbitrate_slot(slot, all, rng).clean;
    ASSERT_EQ(g.size(), 1u);
    EXPECT_TRUE(g[0] == 0 || g[0] == 2 || g[0] == 5);
  }
  // Only die 5 live-and-backlogged: the work-conserving token bypasses
  // the dead dies (whose stale backlog flags are dropped) to reach it.
  std::vector<bool> only5{false, true, false, true, true, true};
  only5[5] = true;
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    const net::SlotGrant g = mac.arbitrate_slot(slot, only5, rng).clean;
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0], 5u);
  }
}

TEST(Fault, SubsetMacTdmaReclaimsDeadSlots) {
  // TDMA rebuilt for 2 survivors of 4: every slot belongs to a live
  // die -- the dead dies' slots are reclaimed, not wasted.
  auto inner = std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(2));
  net::SubsetMac mac(std::move(inner), {1, 2}, 4);
  RngStream rng(239);
  const std::vector<bool> backlogged(4, true);
  for (std::uint64_t slot = 0; slot < 8; ++slot) {
    const net::SlotGrant g = mac.arbitrate_slot(slot, backlogged, rng).clean;
    ASSERT_EQ(g.size(), 1u);
    EXPECT_TRUE(g[0] == 1 || g[0] == 2);
  }
}

// ---------- NoC dead nodes and broken links ----------

TEST(Fault, StackNetworkRoutesUniformTrafficAroundDeadDies) {
  net::StackNetworkConfig cfg;
  cfg.dies = 4;
  cfg.traffic.resize(4);
  for (auto& t : cfg.traffic) {
    t.packets_per_slot = 0.1;
    t.uniform_destinations = true;
  }
  cfg.dead_nodes = {0, 0, 0, 1};  // die 3 dead
  cfg.reroute_dead_destinations = true;
  net::StackNetwork network(cfg, std::make_unique<net::TokenMac>(4, 0));
  RngStream rng(241);
  const net::NetworkRunResult r = network.run(20000, rng);

  EXPECT_EQ(r.per_die[3].offered, 0u);    // dead dies source nothing
  EXPECT_EQ(r.per_die[3].delivered, 0u);  // and transmit nothing
  // Live dies reroute around the hole: with perfect delivery nothing
  // dies to retries, so everything offered is delivered or still
  // queued (no packet was lost addressing the dead die).
  for (std::size_t die = 0; die < 3; ++die) {
    EXPECT_EQ(r.per_die[die].retry_drops, 0u);
    EXPECT_EQ(r.per_die[die].queue_drops, 0u);
  }
  EXPECT_EQ(r.total_delivered() + network.backlog(), r.total_offered());
  EXPECT_GT(r.total_delivered(), 0u);
}

TEST(Fault, StackNetworkFixedTrafficToDeadDieIsUnroutable) {
  net::StackNetworkConfig cfg;
  cfg.dies = 3;
  cfg.traffic.resize(3);
  cfg.traffic[0].packets_per_slot = 0.2;
  cfg.traffic[0].destination = 2;  // addressed to the dead die
  cfg.dead_nodes = {0, 0, 1};
  cfg.reroute_dead_destinations = true;
  net::StackNetwork network(cfg, std::make_unique<net::TokenMac>(3, 0));
  RngStream rng(251);
  const net::NetworkRunResult r = network.run(5000, rng);
  EXPECT_GT(r.per_die[0].offered, 0u);
  EXPECT_EQ(r.per_die[0].delivered, 0u);
  // Unroutable at entry: counted as queue drops, no bus slots burned.
  EXPECT_EQ(r.per_die[0].queue_drops, r.per_die[0].offered);
  EXPECT_EQ(r.per_die[0].transmissions, 0u);
}

TEST(Fault, StackNetworkBrokenLinkFailsDeterministically) {
  net::StackNetworkConfig cfg;
  cfg.dies = 2;
  cfg.traffic.resize(2);
  cfg.traffic[0].packets_per_slot = 0.2;
  cfg.traffic[0].destination = 1;
  cfg.max_attempts = 2;
  cfg.broken_links = {0, 1,   // 0 -> 1 broken
                      0, 0};
  net::StackNetwork network(cfg, std::make_unique<net::TokenMac>(2, 0));
  RngStream rng(257);
  const net::NetworkRunResult r = network.run(5000, rng);
  EXPECT_GT(r.per_die[0].offered, 0u);
  EXPECT_EQ(r.per_die[0].delivered, 0u);
  EXPECT_GT(r.per_die[0].retry_drops, 0u);  // ARQ exhausts, packets die
}

TEST(Fault, UniformDestinationsCoverTheEligibleOtherDies) {
  // Destinations recorded through delivery_model: never the source,
  // never a dead die under reroute, and uniform over the eligible
  // other dies (Pearson's chi^2 pooled over sources). Every transfer
  // reaches the hook, so none was addressed to a dead die.
  constexpr std::size_t kDies = 7;
  for (const bool faulted : {false, true}) {
    net::StackNetworkConfig cfg;
    cfg.dies = kDies;
    cfg.traffic.resize(kDies);
    for (std::size_t die = 0; die < kDies; ++die) {
      cfg.traffic[die].packets_per_slot = 0.02 * static_cast<double>(die + 1);
      cfg.traffic[die].uniform_destinations = true;
    }
    if (faulted) {
      cfg.dead_nodes.assign(kDies, 0);
      cfg.dead_nodes[2] = 1;
      cfg.dead_nodes[5] = 1;
      cfg.reroute_dead_destinations = true;
    }
    std::vector<std::uint64_t> seen(kDies * kDies, 0);
    cfg.delivery_model = [&seen](const net::Packet& p, RngStream&) {
      ++seen[p.src * kDies + p.dst];
      return true;
    };
    net::StackNetwork network(cfg, std::make_unique<net::TokenMac>(kDies, 0));
    RngStream rng(263);
    const net::NetworkRunResult r = network.run(100000, rng);

    std::uint64_t transmissions = 0;
    for (const auto& d : r.per_die) transmissions += d.transmissions;
    std::uint64_t recorded = 0;
    for (const std::uint64_t n : seen) recorded += n;
    EXPECT_EQ(recorded, transmissions);

    const std::size_t eligible = faulted ? kDies - 2 : kDies;
    double chi2 = 0.0;
    std::size_t dof = 0;
    for (std::size_t src = 0; src < kDies; ++src) {
      EXPECT_EQ(seen[src * kDies + src], 0u) << "source " << src;
      if (network.node_dead(src)) continue;
      std::uint64_t total = 0;
      for (std::size_t dst = 0; dst < kDies; ++dst) total += seen[src * kDies + dst];
      ASSERT_GT(total, 0u);
      const double expected = static_cast<double>(total) / static_cast<double>(eligible - 1);
      for (std::size_t dst = 0; dst < kDies; ++dst) {
        if (dst == src) continue;
        if (network.node_dead(dst)) {
          EXPECT_EQ(seen[src * kDies + dst], 0u) << src << " -> dead " << dst;
          continue;
        }
        const double d = static_cast<double>(seen[src * kDies + dst]) - expected;
        chi2 += d * d / expected;
      }
      dof += eligible - 2;
    }
    // chi^2 0.999 quantiles: 35 dof on the clean stack (7 sources x 5),
    // 15 with two dead dies (5 sources x 3).
    ASSERT_EQ(dof, faulted ? 15u : 35u);
    EXPECT_LT(chi2, faulted ? 37.697 : 66.619) << (faulted ? "faulted" : "clean");
  }
}

// ---------- end-to-end scenario behaviour ----------

scenario::ScenarioSpec starved_link_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "fault_e2e";
  spec.seed = 701;
  spec.device.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::nanowatts(20.0);
  spec.device.spad.dcr_at_ref = util::Frequency::hertz(0.0);
  spec.device.spad.afterpulse_probability = 0.0;
  spec.budget.samples = 2000;
  spec.budget.repro_scaled = false;
  return spec;
}

TEST(Fault, FaultedLinkSweepIsThreadCountInvariant) {
  // The acceptance bar: a multi-fault sweep must be bit-identical
  // whether one thread or eight simulate it, because the realisation
  // stream is keyed by (seed, point, salt) -- never by chunk or thread.
  scenario::ScenarioSpec spec = starved_link_spec();
  spec.fault.dark_window_probability = 0.1;
  spec.fault.array_pixels = 64;
  spec.sweep = {scenario::SweepAxis::list("fault.dead_pixel_fraction",
                                          {0.0, 0.25, 0.5})};
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport eight = scenario::ScenarioRunner(8).run(spec);
  ASSERT_EQ(one.points.size(), eight.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, eight.points[i].metrics);
    EXPECT_EQ(one.points[i].rng_draws, eight.points[i].rng_draws);
  }
}

TEST(Fault, FaultedNocSweepIsThreadCountInvariant) {
  scenario::ScenarioSpec spec;
  spec.name = "fault_noc_e2e";
  spec.seed = 709;
  spec.topology = scenario::Topology::kStackNoc;
  spec.noc.dies = 8;
  spec.noc.offered_load = 0.9;
  spec.budget.samples = 4000;
  spec.budget.repro_scaled = false;
  spec.fault.link_failure_probability = 0.1;
  spec.sweep = {scenario::SweepAxis::list("fault.dead_node_fraction",
                                          {0.0, 0.25, 0.5})};
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport four = scenario::ScenarioRunner(4).run(spec);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, four.points[i].metrics);
    EXPECT_EQ(one.points[i].rng_draws, four.points[i].rng_draws);
  }
}

TEST(Fault, DeadPixelDegradationIsMonotoneAndSignificant) {
  // The degraded_link story: erasures rise monotonically with the dead
  // fraction at a starved operating point, and the endpoints separate
  // by far more than Monte Carlo noise.
  scenario::ScenarioSpec spec = starved_link_spec();
  spec.budget.samples = 3000;
  spec.fault.array_pixels = 64;
  spec.sweep = {scenario::SweepAxis::list("fault.dead_pixel_fraction",
                                          {0.0, 0.25, 0.5})};
  const scenario::RunReport r = scenario::ScenarioRunner().run(spec);
  ASSERT_EQ(r.points.size(), 3u);
  std::vector<double> erasure;
  for (const auto& p : r.points) erasure.push_back(r.metric(p, "erasure_rate"));
  EXPECT_LE(erasure[0], erasure[1]);
  EXPECT_LE(erasure[1], erasure[2]);
  // Endpoint z-separation: the clean rate must sit far below the
  // half-dead rate (a pooled two-proportion test would reject equality
  // at any sane alpha; assert via disjoint Wilson-style bounds).
  const auto count = [&](std::size_t i) {
    return static_cast<std::uint64_t>(erasure[i] *
                                          static_cast<double>(r.points[i].samples) +
                                      0.5);
  };
  EXPECT_RATE_LT(count(0), r.points[0].samples, erasure[2] - 0.05, 1e-4);
  EXPECT_RATE_GT(count(2), r.points[2].samples, erasure[0] + 0.05, 1e-4);
}

TEST(Fault, NocNodeFailureDegradesGracefullyWithMacReclaim) {
  scenario::ScenarioSpec spec;
  spec.name = "fault_noc_reclaim";
  spec.seed = 719;
  spec.topology = scenario::Topology::kStackNoc;
  spec.noc.dies = 8;
  spec.noc.mac = "tdma";
  spec.noc.offered_load = 0.95;
  spec.budget.samples = 20000;
  spec.budget.repro_scaled = false;

  const scenario::RunReport clean = scenario::ScenarioRunner().run(spec);
  const double clean_carried = clean.metric(clean.points.front(), "carried_load");

  scenario::ScenarioSpec faulted = spec;
  faulted.fault.dead_node_fraction = 0.5;
  const scenario::RunReport degraded = scenario::ScenarioRunner().run(faulted);
  const double degraded_carried =
      degraded.metric(degraded.points.front(), "carried_load");

  scenario::ScenarioSpec wasteful = faulted;
  wasteful.fault.mac_reclaim = false;
  const scenario::RunReport unreclaimed = scenario::ScenarioRunner().run(wasteful);
  const double unreclaimed_carried =
      unreclaimed.metric(unreclaimed.points.front(), "carried_load");

  // Losing half the sources halves the offered load, so carried load
  // falls -- but gracefully: the survivors still carry traffic.
  EXPECT_LT(degraded_carried, clean_carried);
  EXPECT_GT(degraded_carried, 0.0);
  // TDMA slot reclamation is the response that makes it graceful:
  // without it, dead dies' slots are wasted and the survivors carry
  // strictly less under the same per-die load.
  EXPECT_GT(degraded_carried, unreclaimed_carried);
}

TEST(Fault, WdmDeadChannelReducesAggregateThroughput) {
  scenario::ScenarioSpec spec;
  spec.name = "fault_wdm";
  spec.seed = 727;
  spec.topology = scenario::Topology::kWdm;
  spec.device.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.budget.samples = 400;
  spec.budget.repro_scaled = false;

  const scenario::RunReport clean = scenario::ScenarioRunner().run(spec);
  const double clean_gbps = clean.metric(clean.points.front(), "aggregate_gbps");
  ASSERT_GT(clean_gbps, 0.0);

  scenario::ScenarioSpec faulted = spec;
  faulted.fault.dead_channel_fraction = 0.25;  // 1 of 4 channels killed
  const scenario::RunReport degraded = scenario::ScenarioRunner().run(faulted);
  const double degraded_gbps =
      degraded.metric(degraded.points.front(), "aggregate_gbps");
  // One dead channel of four removes ~a quarter of the aggregate; the
  // survivors keep working (graceful, not collapsing).
  EXPECT_LT(degraded_gbps, clean_gbps);
  EXPECT_GT(degraded_gbps, 0.5 * clean_gbps);

  // Deterministic: the same faulted spec re-runs to the same numbers.
  const scenario::RunReport again = scenario::ScenarioRunner().run(faulted);
  EXPECT_EQ(again.points.front().metrics, degraded.points.front().metrics);
}

}  // namespace
