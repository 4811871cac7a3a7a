// Tests for the packet/MAC network layer over the shared optical bus,
// including packet conservation under every MAC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/mac.hpp"
#include "oci/net/packet.hpp"
#include "oci/net/stack_network.hpp"

using namespace oci;
using net::AlohaMac;
using net::StackNetwork;
using net::StackNetworkConfig;
using net::TdmaMac;
using net::TokenMac;
using net::TrafficSpec;
using util::RngStream;

// ---------- helpers ----------

StackNetworkConfig uniform_config(std::size_t dies, double per_die_load) {
  StackNetworkConfig c;
  c.dies = dies;
  c.traffic.resize(dies);
  for (auto& t : c.traffic) {
    t.packets_per_slot = per_die_load;
    t.uniform_destinations = true;
  }
  return c;
}

// ---------- latency summary ----------

TEST(LatencySummary, EmptyIsZero) {
  const auto s = net::summarize_latencies({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.mean_slots, 0.0);
}

TEST(LatencySummary, QuantilesOrdered) {
  std::vector<double> lat;
  for (int i = 1; i <= 100; ++i) lat.push_back(static_cast<double>(i));
  const auto s = net::summarize_latencies(lat);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_NEAR(s.mean_slots, 50.5, 1e-12);
  EXPECT_LE(s.p50_slots, s.p95_slots);
  EXPECT_LE(s.p95_slots, s.p99_slots);
  EXPECT_LE(s.p99_slots, s.max_slots);
  EXPECT_EQ(s.max_slots, 100.0);
}

TEST(LatencySummary, SelectionMatchesSortedNearestRank) {
  // Reference: sort a copy, nearest rank floor(q * n) capped at n - 1.
  // Integer latencies from a narrow range force ties; 1 and 2 elements
  // put every quantile on the same or adjacent ranks.
  RngStream rng(331);
  for (const std::int64_t range : {3, 40, 1000000}) {
    for (const std::size_t n : {1, 2, 3, 7, 100, 1001, 20000}) {
      std::vector<double> lat(n);
      for (double& v : lat) v = static_cast<double>(rng.uniform_int(1, range));
      std::vector<double> sorted = lat;
      std::sort(sorted.begin(), sorted.end());
      double sum = 0.0;
      for (const double v : sorted) sum += v;
      const auto rank = [&](double q) {
        return sorted[std::min(static_cast<std::size_t>(q * static_cast<double>(n)), n - 1)];
      };
      const auto s = net::summarize_latencies(lat);
      EXPECT_EQ(s.samples, n);
      EXPECT_EQ(s.mean_slots, sum / static_cast<double>(n)) << n << " " << range;
      EXPECT_EQ(s.p50_slots, rank(0.50)) << n << " " << range;
      EXPECT_EQ(s.p95_slots, rank(0.95)) << n << " " << range;
      EXPECT_EQ(s.p99_slots, rank(0.99)) << n << " " << range;
      EXPECT_EQ(s.max_slots, sorted.back()) << n << " " << range;
    }
  }
}

// ---------- MAC policies ----------

TEST(TdmaMacPolicy, GrantsOnlyTheSlotOwner) {
  TdmaMac mac(bus::TdmaSchedule::equal(4));
  RngStream rng(211);
  const std::vector<bool> all_busy(4, true);
  for (std::uint64_t slot = 0; slot < 8; ++slot) {
    const auto grant = mac.arbitrate_slot(slot, all_busy, rng).clean;
    ASSERT_EQ(grant.size(), 1u);
    EXPECT_EQ(grant.front(), slot % 4);
  }
}

TEST(TdmaMacPolicy, IdleOwnerWastesTheSlot) {
  TdmaMac mac(bus::TdmaSchedule::equal(2));
  RngStream rng(223);
  const std::vector<bool> only_one{false, true};
  EXPECT_TRUE(mac.arbitrate_slot(0, only_one, rng).clean.empty());  // die 0 idle
  EXPECT_EQ(mac.arbitrate_slot(1, only_one, rng).clean.size(), 1u);
}

TEST(TokenMacPolicy, WorkConservingSkipsIdleDies) {
  TokenMac mac(4, /*pass_slots=*/0);
  RngStream rng(227);
  // Only die 3 is backlogged: it gets every slot despite the rotation.
  const std::vector<bool> only_three{false, false, false, true};
  for (int i = 0; i < 5; ++i) {
    const auto grant = mac.arbitrate_slot(static_cast<std::uint64_t>(i), only_three, rng).clean;
    ASSERT_EQ(grant.size(), 1u);
    EXPECT_EQ(grant.front(), 3u);
  }
}

TEST(TokenMacPolicy, PassCostBurnsSlots) {
  TokenMac mac(2, /*pass_slots=*/2);
  RngStream rng(229);
  const std::vector<bool> only_one{false, true};
  // Token starts at die 0 (idle): the pass to die 1 costs 2 dead slots.
  EXPECT_TRUE(mac.arbitrate_slot(0, only_one, rng).clean.empty());
  EXPECT_TRUE(mac.arbitrate_slot(1, only_one, rng).clean.empty());
  const auto grant = mac.arbitrate_slot(2, only_one, rng).clean;
  ASSERT_EQ(grant.size(), 1u);
  EXPECT_EQ(grant.front(), 1u);
  // Holder now owns the medium with no further pass cost.
  EXPECT_EQ(mac.arbitrate_slot(3, only_one, rng).clean.size(), 1u);
}

TEST(TokenMacPolicy, ValidatesInputs) {
  EXPECT_THROW(TokenMac(0), std::invalid_argument);
  TokenMac mac(3);
  RngStream rng(233);
  const std::vector<bool> wrong_size(2, true);
  EXPECT_THROW((void)mac.arbitrate_slot(0, wrong_size, rng), std::invalid_argument);
}

TEST(AlohaMacPolicy, CertainAttemptCollidesWhenTwoBusy) {
  AlohaMac mac(1.0);
  RngStream rng(239);
  const std::vector<bool> two_busy{true, true, false};
  const auto out = mac.arbitrate_slot(0, two_busy, rng);
  EXPECT_TRUE(out.clean.empty());
  EXPECT_EQ(out.collided.size(), 2u);  // both transmit -> collision
}

TEST(AlohaMacPolicy, RejectsBadProbability) {
  EXPECT_THROW(AlohaMac(0.0), std::invalid_argument);
  EXPECT_THROW(AlohaMac(1.5), std::invalid_argument);
}

// ---------- network invariants ----------

TEST(StackNetwork, ValidatesConfig) {
  auto cfg = uniform_config(4, 0.05);
  cfg.traffic.pop_back();
  EXPECT_THROW(StackNetwork(cfg, std::make_unique<TokenMac>(4)), std::invalid_argument);

  cfg = uniform_config(4, 0.05);
  cfg.delivery_probability = 1.5;
  EXPECT_THROW(StackNetwork(cfg, std::make_unique<TokenMac>(4)), std::invalid_argument);

  cfg = uniform_config(4, 0.05);
  cfg.max_attempts = 0;
  EXPECT_THROW(StackNetwork(cfg, std::make_unique<TokenMac>(4)), std::invalid_argument);

  cfg = uniform_config(4, 0.05);
  cfg.traffic[0].uniform_destinations = false;
  cfg.traffic[0].destination = 9;
  EXPECT_THROW(StackNetwork(cfg, std::make_unique<TokenMac>(4)), std::invalid_argument);

  EXPECT_THROW(StackNetwork(uniform_config(4, 0.05), nullptr), std::invalid_argument);
}

TEST(StackNetwork, ZeroLoadStaysSilent) {
  StackNetwork netw(uniform_config(4, 0.0), std::make_unique<TokenMac>(4));
  RngStream rng(241);
  const auto r = netw.run(5000, rng);
  EXPECT_EQ(r.total_offered(), 0u);
  EXPECT_EQ(r.total_delivered(), 0u);
  EXPECT_EQ(r.idle_slots, 5000u);
}

TEST(StackNetwork, PacketConservation) {
  // offered = delivered + queue_drops + retry_drops + still queued.
  auto cfg = uniform_config(6, 0.08);
  cfg.delivery_probability = 0.9;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(6));
  RngStream rng(251);
  const auto r = netw.run(20000, rng);
  std::uint64_t accounted = 0;
  for (const auto& d : r.per_die) {
    accounted += d.delivered + d.queue_drops + d.retry_drops;
  }
  EXPECT_EQ(r.total_offered(), accounted + netw.backlog());
  EXPECT_GT(r.total_delivered(), 0u);
}

TEST(StackNetwork, TdmaSharesFairlyUnderSymmetricLoad) {
  auto cfg = uniform_config(4, 0.2);  // 0.8 aggregate: near saturation
  StackNetwork netw(cfg, std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(4)));
  RngStream rng(257);
  const auto r = netw.run(40000, rng);
  EXPECT_GT(r.fairness_index(), 0.99);
}

TEST(StackNetwork, TokenGivesLoneTalkerFullCapacity) {
  // One saturated die, rest silent: work-conserving token -> ~every
  // slot carries a packet; TDMA would cap it at 1/N.
  auto cfg = uniform_config(8, 0.0);
  cfg.traffic[2].packets_per_slot = 2.0;  // saturate die 2
  cfg.queue_capacity = 10000;
  StackNetwork token_net(cfg, std::make_unique<TokenMac>(8));
  RngStream rng(263);
  const auto token_run = token_net.run(10000, rng);
  EXPECT_GT(token_run.carried_load(), 0.95);

  StackNetwork tdma_net(cfg, std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(8)));
  RngStream rng2(263);
  const auto tdma_run = tdma_net.run(10000, rng2);
  EXPECT_NEAR(tdma_run.carried_load(), 1.0 / 8.0, 0.02);
}

TEST(StackNetwork, AlohaThroughputPeaksWellBelowOne) {
  // Saturated slotted ALOHA tops out near 1/e; at p = 1 with several
  // backlogged dies it collapses to zero (all collisions).
  auto cfg = uniform_config(6, 0.5);
  cfg.queue_capacity = 100000;
  cfg.max_attempts = 1000000;  // isolate the MAC effect from ARQ drops
  StackNetwork good(cfg, std::make_unique<AlohaMac>(1.0 / 6.0));
  RngStream rng(269);
  const auto good_run = good.run(20000, rng);
  EXPECT_GT(good_run.carried_load(), 0.25);
  EXPECT_LT(good_run.carried_load(), 0.45);

  StackNetwork bad(cfg, std::make_unique<AlohaMac>(1.0));
  RngStream rng2(269);
  const auto bad_run = bad.run(20000, rng2);
  EXPECT_LT(bad_run.carried_load(), 0.01);
  EXPECT_GT(bad_run.collision_slots, 15000u);
}

TEST(StackNetwork, ArqRetriesLossyLink) {
  auto cfg = uniform_config(2, 0.05);
  cfg.delivery_probability = 0.5;
  cfg.max_attempts = 10;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(2));
  RngStream rng(271);
  const auto r = netw.run(30000, rng);
  std::uint64_t transmissions = 0;
  for (const auto& d : r.per_die) transmissions += d.transmissions;
  // Each delivery costs ~2 transmissions at p = 0.5.
  EXPECT_GT(static_cast<double>(transmissions),
            1.7 * static_cast<double>(r.total_delivered()));
  EXPECT_GT(r.delivery_ratio(), 0.99);  // 10 attempts at 0.5 -> ~all arrive
}

TEST(StackNetwork, RetryBudgetDropsOnDeadLink) {
  auto cfg = uniform_config(2, 0.02);
  cfg.delivery_probability = 0.0;
  cfg.max_attempts = 3;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(2));
  RngStream rng(277);
  const auto r = netw.run(10000, rng);
  EXPECT_EQ(r.total_delivered(), 0u);
  std::uint64_t retry_drops = 0;
  for (const auto& d : r.per_die) retry_drops += d.retry_drops;
  EXPECT_GT(retry_drops, 100u);
}

TEST(StackNetwork, QueueCapacityDropsAtEntry) {
  auto cfg = uniform_config(1, 3.0);  // heavy overload on one die
  cfg.traffic[0].uniform_destinations = false;
  cfg.traffic[0].destination = net::kBroadcast;
  cfg.queue_capacity = 4;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(1));
  RngStream rng(281);
  const auto r = netw.run(5000, rng);
  EXPECT_GT(r.per_die[0].queue_drops, 1000u);
  EXPECT_LE(netw.backlog(), 4u);
}

TEST(StackNetwork, LatencyGrowsWithLoad) {
  auto light_cfg = uniform_config(4, 0.02);
  auto heavy_cfg = uniform_config(4, 0.22);
  StackNetwork light(light_cfg, std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(4)));
  StackNetwork heavy(heavy_cfg, std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(4)));
  RngStream rng1(283), rng2(283);
  const auto light_run = light.run(30000, rng1);
  const auto heavy_run = heavy.run(30000, rng2);
  EXPECT_LT(light_run.latency.p99_slots, heavy_run.latency.p99_slots);
  EXPECT_LT(light_run.latency.mean_slots, heavy_run.latency.mean_slots);
}

TEST(StackNetwork, WarmRestartContinuesQueues) {
  auto cfg = uniform_config(2, 0.7);  // 1.4 aggregate: oversubscribed
  cfg.queue_capacity = 100000;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(2));
  RngStream rng(293);
  (void)netw.run(5000, rng);
  const std::size_t mid_backlog = netw.backlog();
  EXPECT_GT(mid_backlog, 0u);
  const auto second = netw.run(5000, rng);
  // Latencies in the second window include packets queued in the first.
  EXPECT_GT(second.latency.max_slots, 1000.0);
}

TEST(StackNetwork, WeightedTdmaSkewsBandwidth) {
  // Both dies saturated: delivered bandwidth follows the 3:1 slot
  // weights (at partial load it would follow min(offered, share)).
  auto cfg = uniform_config(2, 1.0);
  cfg.queue_capacity = 100000;
  StackNetwork netw(cfg,
                    std::make_unique<TdmaMac>(bus::TdmaSchedule({3, 1})));
  RngStream rng(307);
  const auto r = netw.run(20000, rng);
  const double ratio = static_cast<double>(r.per_die[0].delivered) /
                       static_cast<double>(r.per_die[1].delivered);
  EXPECT_NEAR(ratio, 3.0, 0.3);
}

// ---------- arrivals by Poisson superposition ----------

TEST(StackNetwork, PerDieArrivalsArePoissonAtTheirOwnRates) {
  // Unequal rates, a hotspot, a zero-rate die and a dead die: each
  // live die's offered count must be Poisson(rate * slots). Pearson's
  // chi^2 over the k = 10 live positive-rate dies stays below its
  // 0.999 quantile; the zero-rate and dead dies offer nothing.
  constexpr std::size_t kDies = 12;
  constexpr std::uint64_t kSlots = 200000;
  auto cfg = uniform_config(kDies, 0.0);
  for (std::size_t die = 0; die < kDies; ++die) {
    cfg.traffic[die].packets_per_slot = 0.004 * static_cast<double>(die);
  }
  cfg.traffic[7].packets_per_slot = 0.3;  // hotspot
  cfg.dead_nodes.assign(kDies, 0);
  cfg.dead_nodes[5] = 1;  // configured rate, but dead
  cfg.queue_capacity = 1000000;
  StackNetwork netw(cfg, std::make_unique<TokenMac>(kDies));
  RngStream rng(311);
  const auto r = netw.run(kSlots, rng);

  EXPECT_EQ(r.per_die[0].offered, 0u);  // zero rate
  EXPECT_EQ(r.per_die[5].offered, 0u);  // dead
  double chi2 = 0.0;
  std::size_t k = 0;
  for (std::size_t die = 0; die < kDies; ++die) {
    const double expected = cfg.traffic[die].packets_per_slot * static_cast<double>(kSlots);
    if (expected <= 0.0 || die == 5) continue;
    const double d = static_cast<double>(r.per_die[die].offered) - expected;
    chi2 += d * d / expected;
    ++k;
  }
  ASSERT_EQ(k, 10u);
  EXPECT_LT(chi2, 29.588);  // chi^2_{10} 0.999 quantile
}

TEST(StackNetwork, ArrivalDrawsPerSlotDoNotScaleWithDies) {
  // Same offered load at 64 and 1024 dies, TDMA, scalar delivery: the
  // draws per slot follow the arrivals, not the die count (one
  // Poisson per die per slot would read 65 vs 1025).
  const auto draws_per_slot = [](std::size_t dies) {
    constexpr std::uint64_t kSlots = 20000;
    auto cfg = uniform_config(dies, 1.4 / static_cast<double>(dies));
    StackNetwork netw(cfg, std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(dies)));
    RngStream rng(313);
    (void)netw.run(kSlots, rng);
    return static_cast<double>(rng.draws()) / static_cast<double>(kSlots);
  };
  const double small = draws_per_slot(64);
  const double large = draws_per_slot(1024);
  EXPECT_LT(large, 2.0 * small) << small << " vs " << large;
  EXPECT_LT(large, 5.0);  // ~1 aggregate draw + 2 per arrival at 1.4 arrivals
}

// ---------- the source pick's inverse ----------

TEST(RateSums, UpperBoundMatchesStdUpperBound) {
  // Uniform, hotspot, master-broadcast, log-spread and tied tables of
  // 1 to 1024 sums, queried at every sum and bucket edge and one ulp to
  // either side, at both ends of the range and past them, at NaN, and
  // at random points: the inverse is std::upper_bound's answer.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RngStream rng(337);
  for (const std::size_t n : {1, 2, 3, 7, 64, 255, 256, 257, 1000, 1024}) {
    const auto size = static_cast<double>(n);
    for (int shape = 0; shape < 6; ++shape) {
      std::vector<double> sums;
      double total = 0.0;
      double spread = 3e-5;
      for (std::size_t i = 0; i < n; ++i) {
        const double rates[] = {
            1.4 / size,                          // uniform
            i == n / 3 ? 0.35 : 0.9 / size,      // hotspot
            i == 0 ? 0.3 : 0.003,                // master-broadcast
            spread,                              // three decades
            i % 3 == 0 ? 0.01 : 0.0,             // runs of exact ties
            i == 0 ? 1.0 : 1e-17,                // ties by rounding
        };
        spread *= 1.027;
        total += rates[shape];
        sums.push_back(total);
      }
      const net::RateSums table(sums);
      ASSERT_EQ(table.total(), total);
      std::vector<double> queries{0.0, -0.0, -1.0, total, 2.0 * total, kInf, -kInf,
                                  std::numeric_limits<double>::quiet_NaN()};
      const auto around = [&](double x) {
        queries.push_back(std::nextafter(x, -kInf));
        queries.push_back(x);
        queries.push_back(std::nextafter(x, kInf));
      };
      for (const double sum : sums) around(sum);
      for (std::size_t b = 0; b <= n; ++b) {
        around(total * static_cast<double>(b) / static_cast<double>(n));
      }
      for (int k = 0; k < 2000; ++k) queries.push_back(rng.uniform() * total);
      for (const double x : queries) {
        const auto want =
            static_cast<std::size_t>(std::upper_bound(sums.begin(), sums.end(), x) - sums.begin());
        ASSERT_EQ(table.upper_bound(x), want) << "n " << n << " shape " << shape << " x " << x;
      }
    }
  }
}

// ---------- golden traffic: the bits no report digest pins ----------

/// FNV-1a over 64-bit words, low byte first: one number pins a long
/// sequence of counts.
std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

enum class GoldenRates { kHotspot, kMasterBroadcast, kLogSpread };
enum class GoldenMac { kTdma, kToken, kCac };

constexpr std::size_t kGoldenDies = 257;
constexpr std::uint64_t kGoldenSeed = 20270101;

/// 257 dies with a zero-rate die (3) and a dead die (200), so the
/// source table holds 255 live sources: a 0.35 hotspot over uniform
/// traffic, a 0.3 broadcast master over workers sending to it, or
/// rates spread over three decades (built by repeated multiplication,
/// exactly rounded, so no libm enters the rates).
StackNetworkConfig golden_config(GoldenRates rates) {
  auto cfg = uniform_config(kGoldenDies, 0.0);
  double spread = 3e-5;
  for (std::size_t die = 0; die < kGoldenDies; ++die) {
    TrafficSpec& t = cfg.traffic[die];
    switch (rates) {
      case GoldenRates::kHotspot:
        t.packets_per_slot = die == 17 ? 0.35 : 0.9 / static_cast<double>(kGoldenDies);
        break;
      case GoldenRates::kMasterBroadcast:
        t.uniform_destinations = false;
        t.packets_per_slot = die == 0 ? 0.3 : 0.003;
        t.destination = die == 0 ? net::kBroadcast : 0;
        break;
      case GoldenRates::kLogSpread:
        t.packets_per_slot = spread;
        spread *= 1.027;
        break;
    }
  }
  cfg.traffic[3].packets_per_slot = 0.0;
  cfg.dead_nodes.assign(kGoldenDies, 0);
  cfg.dead_nodes[200] = 1;
  cfg.delivery_probability = 0.9;
  cfg.queue_capacity = 64;
  return cfg;
}

/// The CAC schedule of the golden runs and of the 1024-node pin.
net::cac::Allocation golden_allocation(std::size_t nodes) {
  net::cac::AllocConfig ac;
  ac.nodes = nodes;
  ac.wavelengths = 4;
  ac.weight = 2;
  ac.rounds = 8;
  RngStream rng(kGoldenSeed, "alloc/0");
  return net::cac::DistributedAllocator(ac).allocate(rng);
}

struct GoldenRun {
  GoldenRates rates;
  GoldenMac mac;
  std::uint64_t offered;
  std::uint64_t delivered;
  std::uint64_t per_die_fnv;  ///< fnv1a of (offered, delivered) per die
  std::uint64_t idle_slots;
  std::uint64_t collision_slots;
  std::uint64_t draws;
  std::size_t latency_samples;
  double latency_mean;
  double latency_p50;
  double latency_p95;
  double latency_p99;
  double latency_max;
};

TEST(StackNetwork, GoldenTrafficMatchesPinnedCounts) {
  // Hotspot, master-broadcast and log-spread rates under TDMA, token
  // and a 4-wavelength CAC schedule, 20k slots each: per-die offered
  // and delivered counts, the slot accounting, the stream's draws and
  // the latency summary, pinned bit for bit. The checked-in specs run
  // uniform rates only and abl_noc's one hotspot table is small, so
  // these are the pins of the source pick on wide unequal rate tables.
  const GoldenRun kPinned[] = {
      // clang-format off
      {GoldenRates::kHotspot, GoldenMac::kTdma, 24688, 16213, 0xf35516d0f015d1ceull, 1947, 0, 80758, 16213, 1336.5488188490717, 1031, 3468, 4770, 19586},
      {GoldenRates::kHotspot, GoldenMac::kToken, 24942, 18027, 0x4e085531788a2886ull, 0, 0, 84265, 18027, 971.22577245243247, 868, 2251, 2469, 2668},
      {GoldenRates::kHotspot, GoldenMac::kCac, 24790, 18146, 0x3796a645e4591ddaull, 6118, 208, 83230, 18146, 125.83952386200815, 56, 181, 4446, 4842},
      {GoldenRates::kMasterBroadcast, GoldenMac::kTdma, 21362, 14745, 0x955cbd0afe89a117ull, 3595, 0, 57767, 14745, 861.97951848084097, 627, 2280, 3483, 18757},
      {GoldenRates::kMasterBroadcast, GoldenMac::kToken, 21119, 17971, 0x8ad74ff14f0862b7ull, 0, 0, 61119, 17971, 323.55767625619052, 324, 655, 752, 861},
      {GoldenRates::kMasterBroadcast, GoldenMac::kCac, 21371, 15587, 0x215ffa996e1244adull, 7545, 139, 58655, 15587, 132.02149226919869, 54, 167, 4452, 4716},
      {GoldenRates::kLogSpread, GoldenMac::kTdma, 20592, 7792, 0x32978826f3eb04c8ull, 11295, 0, 61255, 7792, 4135.2435831622179, 2369, 13185, 15781, 17666},
      {GoldenRates::kLogSpread, GoldenMac::kToken, 20948, 18023, 0x390a88f74f75a608ull, 0, 0, 81122, 18023, 1266.9502302613328, 1053, 3188, 3705, 4052},
      {GoldenRates::kLogSpread, GoldenMac::kCac, 20751, 17121, 0xd5af0bffbe3ecaecull, 6399, 533, 78428, 17121, 1175.9390806611764, 218, 4641, 5375, 6415},
      // clang-format on
  };
  static constexpr const char* kRateNames[] = {"kHotspot", "kMasterBroadcast", "kLogSpread"};
  static constexpr const char* kMacNames[] = {"kTdma", "kToken", "kCac"};
  for (const GoldenRun& pin : kPinned) {
    std::unique_ptr<net::MacPolicy> mac;
    switch (pin.mac) {
      case GoldenMac::kTdma:
        mac = std::make_unique<TdmaMac>(bus::TdmaSchedule::equal(kGoldenDies));
        break;
      case GoldenMac::kToken:
        mac = std::make_unique<TokenMac>(kGoldenDies, 0);
        break;
      case GoldenMac::kCac:
        mac = std::make_unique<net::CacMac>(golden_allocation(kGoldenDies));
        break;
    }
    StackNetwork netw(golden_config(pin.rates), std::move(mac));
    RngStream rng(kGoldenSeed, kRateNames[static_cast<int>(pin.rates)]);
    const auto r = netw.run(20000, rng);
    std::vector<std::uint64_t> per_die;
    for (const auto& d : r.per_die) {
      per_die.push_back(d.offered);
      per_die.push_back(d.delivered);
    }
    const GoldenRun got{pin.rates,
                        pin.mac,
                        r.total_offered(),
                        r.total_delivered(),
                        fnv1a(per_die),
                        r.idle_slots,
                        r.collision_slots,
                        rng.draws(),
                        r.latency.samples,
                        r.latency.mean_slots,
                        r.latency.p50_slots,
                        r.latency.p95_slots,
                        r.latency.p99_slots,
                        r.latency.max_slots};
    char line[512];
    std::snprintf(line, sizeof line,
                  "{GoldenRates::%s, GoldenMac::%s, %llu, %llu, 0x%llxull, %llu, %llu, %llu, "
                  "%zu, %.17g, %.17g, %.17g, %.17g, %.17g},",
                  kRateNames[static_cast<int>(pin.rates)], kMacNames[static_cast<int>(pin.mac)],
                  static_cast<unsigned long long>(got.offered),
                  static_cast<unsigned long long>(got.delivered),
                  static_cast<unsigned long long>(got.per_die_fnv),
                  static_cast<unsigned long long>(got.idle_slots),
                  static_cast<unsigned long long>(got.collision_slots),
                  static_cast<unsigned long long>(got.draws), got.latency_samples,
                  got.latency_mean, got.latency_p50, got.latency_p95, got.latency_p99,
                  got.latency_max);
    SCOPED_TRACE(line);
    EXPECT_EQ(r.per_die[3].offered, 0u);    // zero rate
    EXPECT_EQ(r.per_die[200].offered, 0u);  // dead
    EXPECT_EQ(got.offered, pin.offered);
    EXPECT_EQ(got.delivered, pin.delivered);
    EXPECT_EQ(got.per_die_fnv, pin.per_die_fnv);
    EXPECT_EQ(got.idle_slots, pin.idle_slots);
    EXPECT_EQ(got.collision_slots, pin.collision_slots);
    EXPECT_EQ(got.draws, pin.draws);
    EXPECT_EQ(got.latency_samples, pin.latency_samples);
    EXPECT_EQ(got.latency_mean, pin.latency_mean);
    EXPECT_EQ(got.latency_p50, pin.latency_p50);
    EXPECT_EQ(got.latency_p95, pin.latency_p95);
    EXPECT_EQ(got.latency_p99, pin.latency_p99);
    EXPECT_EQ(got.latency_max, pin.latency_max);
  }
}

TEST(CacAllocatorGolden, ThousandNodePhasesMatchPins) {
  // noc_thousand_node's largest schedule: 1024 nodes on 4 wavelengths,
  // weight 2, 8 rounds. Every phase is pinned through one hash.
  const net::cac::Allocation a = golden_allocation(1024);
  const std::vector<std::uint64_t> phases(a.phase.begin(), a.phase.end());
  EXPECT_EQ(a.frame, 521u);
  EXPECT_EQ(a.rounds_used, 6u);
  EXPECT_EQ(a.conflict_mass, 58u);
  EXPECT_EQ(fnv1a(phases), 0xce11c023e280a481ull) << std::hex << "0x" << fnv1a(phases) << "ull";
}

// ---------- network conservation under every MAC ----------

enum class MacKind { kTdma, kToken, kTokenPass, kAloha };

class NetConservation : public ::testing::TestWithParam<std::tuple<MacKind, double>> {};

std::unique_ptr<net::MacPolicy> build_mac(MacKind kind, std::size_t dies) {
  switch (kind) {
    case MacKind::kTdma:
      return std::make_unique<net::TdmaMac>(bus::TdmaSchedule::equal(dies));
    case MacKind::kToken:
      return std::make_unique<net::TokenMac>(dies, 0);
    case MacKind::kTokenPass:
      return std::make_unique<net::TokenMac>(dies, 2);
    case MacKind::kAloha:
      return std::make_unique<net::AlohaMac>(1.0 / static_cast<double>(dies));
  }
  return nullptr;
}

TEST_P(NetConservation, OfferedEqualsAccountedPlusBacklog) {
  const auto [kind, load] = GetParam();
  const std::size_t dies = 5;
  net::StackNetworkConfig cfg;
  cfg.dies = dies;
  cfg.traffic.resize(dies);
  for (auto& t : cfg.traffic) {
    t.packets_per_slot = load / static_cast<double>(dies);
    t.uniform_destinations = true;
  }
  cfg.delivery_probability = 0.85;
  cfg.max_attempts = 3;
  cfg.queue_capacity = 64;

  net::StackNetwork netw(cfg, build_mac(kind, dies));
  RngStream rng(419 + static_cast<std::uint64_t>(load * 10));
  const auto r = netw.run(15000, rng);

  std::uint64_t accounted = 0;
  for (const auto& d : r.per_die) accounted += d.delivered + d.queue_drops + d.retry_drops;
  EXPECT_EQ(r.total_offered(), accounted + netw.backlog());
  // Collisions only occur under random access.
  if (kind != MacKind::kAloha) { EXPECT_EQ(r.collision_slots, 0u); }
  // Carried load can never exceed one packet per slot.
  EXPECT_LE(r.carried_load(), 1.0);
}

std::string mac_case_name(const ::testing::TestParamInfo<std::tuple<MacKind, double>>& info) {
  static constexpr const char* kNames[] = {"tdma", "token", "tokenpass", "aloha"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_load" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
}

INSTANTIATE_TEST_SUITE_P(
    Macs, NetConservation,
    ::testing::Combine(::testing::Values(MacKind::kTdma, MacKind::kToken,
                                         MacKind::kTokenPass, MacKind::kAloha),
                       ::testing::Values(0.2, 0.8, 1.5)),
    mac_case_name);
