// Tests for the conflict-avoiding-code MAC stack: the CAC codeword
// constructions (pairwise conflict-freedom is checked exhaustively for
// small primes), the decentralized wavelength/slot allocator
// (determinism, convergence, feasibility rejection), the CacMac
// arbitration semantics (per-frame collision bound, subset
// reclamation), and the scenario-level properties the thousand-node
// story rests on: CAC out-carries the token MAC under supersaturated
// uniform load at 256 dies (Wilson-separated), reports are
// bit-identical at 1 vs 8 runner threads, and the broadcast-storm
// pattern pins its delivery ratio.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/net/cac.hpp"
#include "oci/net/mac.hpp"
#include "oci/net/packet.hpp"
#include "oci/net/stack_network.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/util/random.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci;
using net::CacMac;
using net::StackNetwork;
using net::StackNetworkConfig;
using net::TokenMac;
using net::TrafficSpec;
using util::RngStream;
namespace cac = net::cac;

constexpr std::uint64_t kSeed = 20260808;

// ---------- prime machinery ----------

TEST(CacPrimes, ClassifiesAndWalks) {
  EXPECT_FALSE(cac::is_prime(0));
  EXPECT_FALSE(cac::is_prime(1));
  EXPECT_TRUE(cac::is_prime(2));
  EXPECT_TRUE(cac::is_prime(3));
  EXPECT_FALSE(cac::is_prime(9));
  EXPECT_TRUE(cac::is_prime(97));
  EXPECT_FALSE(cac::is_prime(91));  // 7 * 13
  EXPECT_EQ(cac::next_prime(0), 2u);
  EXPECT_EQ(cac::next_prime(8), 11u);
  EXPECT_EQ(cac::next_prime(13), 13u);
  EXPECT_EQ(cac::next_prime(90), 97u);
}

// ---------- codeword constructions ----------

/// Overlap of codewords a (shifted by d mod p) and b, both subsets of
/// Z_p. The CAC property bounds this by 1 for DISTINCT codewords under
/// every relative shift.
std::size_t shifted_overlap(const std::vector<std::uint32_t>& a,
                            const std::vector<std::uint32_t>& b, std::uint64_t d,
                            std::uint64_t p) {
  std::set<std::uint64_t> shifted;
  for (const std::uint32_t s : a) shifted.insert((s + d) % p);
  std::size_t hits = 0;
  for (const std::uint32_t s : b) hits += shifted.count(s);
  return hits;
}

TEST(CacCodewords, PairwiseConflictFreeExhaustiveSmallPrimes) {
  // The defining CAC property, checked by brute force: for every pair
  // of DISTINCT codewords and every relative cyclic shift, the shifted
  // codewords share at most one slot. (A codeword against its own
  // shift can legitimately overlap in 2 slots -- e.g. {0,g} vs {g,2g}
  // -- which is why each node gets its own codeword.)
  for (const std::uint64_t p : {7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull, 31ull}) {
    for (const unsigned w : {2u, 3u}) {
      if (p <= 2ull * (w - 1)) continue;
      const auto gens = cac::equi_difference_generators(p, w);
      ASSERT_FALSE(gens.empty()) << "p=" << p << " w=" << w;
      std::vector<std::vector<std::uint32_t>> words;
      words.reserve(gens.size());
      for (const std::uint32_t g : gens) words.push_back(cac::codeword(g, w, p));
      for (std::size_t i = 0; i < words.size(); ++i) {
        for (std::size_t j = 0; j < words.size(); ++j) {
          if (i == j) continue;
          for (std::uint64_t d = 0; d < p; ++d) {
            EXPECT_LE(shifted_overlap(words[i], words[j], d, p), 1u)
                << "p=" << p << " w=" << w << " i=" << i << " j=" << j << " d=" << d;
          }
        }
      }
    }
  }
}

TEST(CacCodewords, WeightTwoPackingIsOptimal) {
  // For w=2 the equi-difference family achieves the (p-1)/2 bound.
  for (const std::uint64_t p : {7ull, 13ull, 31ull, 61ull}) {
    EXPECT_EQ(cac::frame_capacity(p, 2), (p - 1) / 2) << "p=" << p;
  }
}

TEST(CacCodewords, FrameCapacityEdgeCases) {
  EXPECT_EQ(cac::frame_capacity(8, 2), 0u);   // not prime
  EXPECT_EQ(cac::frame_capacity(3, 3), 0u);   // p <= 2(w-1)
  EXPECT_EQ(cac::frame_capacity(11, 1), 11u); // weight 1: phases alone
  EXPECT_THROW((void)cac::equi_difference_generators(8, 2), std::invalid_argument);
  EXPECT_THROW((void)cac::equi_difference_generators(11, 1), std::invalid_argument);
}

TEST(CacCodewords, AutoFrameCoversTheRequest) {
  for (const std::size_t count : {1u, 4u, 17u, 100u, 256u}) {
    for (const unsigned w : {1u, 2u, 3u}) {
      const std::uint64_t p = cac::auto_frame(count, w);
      EXPECT_TRUE(cac::is_prime(p)) << count << "/" << w;
      EXPECT_GE(cac::frame_capacity(p, w), count) << count << "/" << w;
    }
  }
  // w=2: frame ~ 2n+1, i.e. near-perfect packing of the 2n pulse mass.
  EXPECT_LE(cac::auto_frame(100, 2), 229u);
}

// ---------- distributed allocator ----------

TEST(CacAllocator, AllocationIsDeterministicFromTheStream) {
  cac::AllocConfig ac;
  ac.nodes = 48;
  ac.wavelengths = 4;
  ac.weight = 2;
  ac.rounds = 8;
  const cac::DistributedAllocator alloc(ac);

  RngStream a(kSeed, "alloc/0");
  RngStream b(kSeed, "alloc/0");
  const cac::Allocation one = alloc.allocate(a);
  const cac::Allocation two = alloc.allocate(b);
  EXPECT_EQ(one.frame, two.frame);
  EXPECT_EQ(one.wavelength, two.wavelength);
  EXPECT_EQ(one.phase, two.phase);
  EXPECT_EQ(one.slots, two.slots);
  EXPECT_EQ(one.conflict_mass, two.conflict_mass);
  EXPECT_EQ(one.rounds_used, two.rounds_used);
  EXPECT_EQ(a.draws(), b.draws());
  // The allocator draws exactly one initial phase per node; refinement
  // is RNG-free, so the draw count is part of the determinism contract.
  EXPECT_EQ(a.draws(), 48u);

  RngStream other(kSeed, "alloc/1");
  const cac::Allocation three = alloc.allocate(other);
  // A different stream may land on a different schedule (not required,
  // but the shapes must still be valid).
  EXPECT_EQ(three.slots.size(), 48u);
}

TEST(CacAllocator, RefinementRemovesSameWavelengthConflicts) {
  // With 4 wavelengths over a weight-2 frame sized for 12 nodes per
  // wavelength there is a conflict-free assignment; the refinement
  // pass must find one (conflict_mass == 0) and converge early.
  cac::AllocConfig ac;
  ac.nodes = 48;
  ac.wavelengths = 4;
  ac.weight = 2;
  ac.rounds = 16;
  const cac::DistributedAllocator alloc(ac);
  RngStream rng(kSeed, "alloc/0");
  const cac::Allocation a = alloc.allocate(rng);
  EXPECT_EQ(a.conflict_mass, 0u);
  EXPECT_LE(a.rounds_used, 16u);
  // Balanced colouring: every wavelength carries nodes/wavelengths dies.
  std::vector<std::size_t> per_wl(a.wavelengths, 0);
  for (const std::uint32_t wl : a.wavelength) ++per_wl[wl];
  for (const std::size_t n : per_wl) EXPECT_EQ(n, 12u);
  // Same-wavelength codewords must be pairwise slot-disjoint when the
  // conflict mass is zero.
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    for (std::size_t j = i + 1; j < a.slots.size(); ++j) {
      if (a.wavelength[i] != a.wavelength[j]) continue;
      std::vector<std::uint32_t> common;
      std::set_intersection(a.slots[i].begin(), a.slots[i].end(), a.slots[j].begin(),
                            a.slots[j].end(), std::back_inserter(common));
      EXPECT_TRUE(common.empty()) << i << " vs " << j;
    }
  }
}

TEST(CacAllocator, RejectsInfeasibleExplicitFrame) {
  cac::AllocConfig ac;
  ac.nodes = 16;
  ac.wavelengths = 1;
  ac.weight = 2;
  ac.frame = 7;  // capacity (7-1)/2 = 3 < 16
  EXPECT_THROW((void)cac::DistributedAllocator(ac), std::invalid_argument);
  ac.frame = 0;  // auto: must succeed
  EXPECT_NO_THROW((void)cac::DistributedAllocator(ac));
  ac.nodes = 0;
  EXPECT_THROW((void)cac::DistributedAllocator(ac), std::invalid_argument);
}

// ---------- CacMac arbitration ----------

std::unique_ptr<CacMac> make_cac(std::size_t dies, std::size_t wavelengths,
                                 const char* salt = "alloc/0") {
  cac::AllocConfig ac;
  ac.nodes = dies;
  ac.wavelengths = wavelengths;
  ac.weight = 2;
  const cac::DistributedAllocator alloc(ac);
  RngStream rng(kSeed, salt);
  return std::make_unique<CacMac>(alloc.allocate(rng));
}

TEST(CacMacPolicy, FullBacklogCollisionsBoundedPerFrame) {
  // Everyone permanently backlogged is the adversarial worst case: the
  // CAC property guarantees any two dies on the SAME wavelength meet
  // in at most one slot per frame, whatever their phases.
  const std::size_t dies = 20;
  auto mac = make_cac(dies, 2);
  const std::uint64_t frame = mac->frame();
  const auto& alloc = mac->allocation();
  RngStream rng(kSeed, "mac");
  const std::vector<bool> all_busy(dies, true);

  std::vector<std::vector<std::uint64_t>> meetings(dies,
                                                   std::vector<std::uint64_t>(dies, 0));
  for (std::uint64_t slot = 0; slot < frame; ++slot) {
    const net::SlotOutcome out = mac->arbitrate_slot(slot, all_busy, rng);
    // Group the slot's active dies by wavelength and count pair meetings.
    for (const auto& grant : {out.clean, out.collided}) {
      for (std::size_t i = 0; i < grant.size(); ++i) {
        for (std::size_t j = i + 1; j < grant.size(); ++j) {
          const std::size_t a = grant[i];
          const std::size_t b = grant[j];
          if (alloc.wavelength[a] == alloc.wavelength[b]) ++meetings[a][b];
        }
      }
    }
    // A clean grant carries at most one die per wavelength.
    std::set<std::uint32_t> clean_wl;
    for (const std::size_t die : out.clean) {
      EXPECT_TRUE(clean_wl.insert(alloc.wavelength[die]).second)
          << "slot " << slot << ": two clean dies on one wavelength";
    }
  }
  for (std::size_t a = 0; a < dies; ++a) {
    for (std::size_t b = a + 1; b < dies; ++b) {
      EXPECT_LE(meetings[a][b], 1u) << "dies " << a << "," << b;
    }
  }
}

TEST(CacMacPolicy, SubsetReclaimsDeadCodewords) {
  // SubsetMac over a CAC built for the SURVIVOR count: the dead dies'
  // codewords return to the pool, the frame shrinks to the survivors'
  // prime, and no grant ever names a dead die.
  const std::size_t dies = 16;
  std::vector<std::size_t> members;
  for (std::size_t d = 0; d < dies; ++d) {
    if (d % 4 != 1) members.push_back(d);  // dies 1,5,9,13 dead
  }
  auto inner = make_cac(members.size(), 2);
  const std::uint64_t survivor_frame = inner->frame();
  // Reclamation means the frame is sized for 12 survivors, strictly
  // shorter than a 16-die frame on the same wavelength budget.
  EXPECT_LT(survivor_frame, make_cac(dies, 2)->frame());

  net::SubsetMac mac(std::move(inner), members, dies);
  RngStream rng(kSeed, "mac");
  const std::vector<bool> all_busy(dies, true);
  std::set<std::size_t> granted;
  for (std::uint64_t slot = 0; slot < 4 * survivor_frame; ++slot) {
    const net::SlotOutcome out = mac.arbitrate_slot(slot, all_busy, rng);
    for (const auto& grant : {out.clean, out.collided}) {
      for (const std::size_t die : grant) granted.insert(die);
    }
  }
  for (const std::size_t d : {1u, 5u, 9u, 13u}) EXPECT_EQ(granted.count(d), 0u);
  // Every survivor transmits somewhere in the window (full backlog).
  EXPECT_EQ(granted.size(), members.size());
}

// ---------- network-level throughput ----------

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

TEST(CacMacPolicy, OutCarriesTokenAtScaleWilsonSeparated) {
  // The thousand-node claim at test scale: under supersaturated
  // uniform load at 256 dies, the CAC schedule (4 WDM wavelengths)
  // delivers a strictly larger fraction of offered packets than the
  // token ring, separated by non-overlapping Wilson intervals.
  const std::size_t dies = 256;
  const double offered = 1.4;
  const std::uint64_t slots = 6000;

  StackNetworkConfig cfg = uniform_config(dies, offered / dies);
  RngStream cac_rng(kSeed, "net/cac");
  StackNetwork cac_net(cfg, make_cac(dies, 4));
  const auto cac_res = cac_net.run(slots, cac_rng);

  RngStream tok_rng(kSeed, "net/token");
  StackNetwork tok_net(cfg, std::make_unique<TokenMac>(dies));
  const auto tok_res = tok_net.run(slots, tok_rng);

  const auto cac_ci = test::rate_interval(cac_res.total_delivered(),
                                          cac_res.total_offered(), 1e-4);
  const auto tok_ci = test::rate_interval(tok_res.total_delivered(),
                                          tok_res.total_offered(), 1e-4);
  EXPECT_GT(cac_ci.ci_low, tok_ci.ci_high)
      << "cac " << cac_res.delivery_ratio() << " vs token "
      << tok_res.delivery_ratio();
  // And in absolute packets/slot the multi-wavelength schedule clears
  // the single-channel ceiling the token ring is pinned under.
  EXPECT_GT(cac_res.carried_load(), tok_res.carried_load());
  EXPECT_GT(cac_res.carried_load(), 1.05);
}

// ---------- scenario integration ----------

/// Pins the process repro scale so budget resolution is deterministic
/// regardless of the CI environment.
struct ScaleGuard {
  explicit ScaleGuard(double s) { analysis::set_repro_scale_for_test(s); }
  ~ScaleGuard() { analysis::set_repro_scale_for_test(std::nullopt); }
};

scenario::ScenarioSpec cac_noc_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "cac_noc";
  spec.seed = kSeed;
  spec.topology = scenario::Topology::kStackNoc;
  spec.noc.dies = 24;
  spec.noc.mac = "cac";
  spec.noc.alloc_wavelengths = 4;
  spec.noc.offered_load = 1.2;
  spec.budget.samples = 4000;
  spec.budget.repro_scaled = false;
  return spec;
}

TEST(CacScenario, RegistryAcceptsAndValidates) {
  scenario::ScenarioSpec spec;
  scenario::set_param(spec, "mac", "cac");
  EXPECT_EQ(spec.noc.mac, "cac");
  scenario::set_param(spec, "alloc.weight", "3");
  EXPECT_EQ(spec.noc.alloc_weight, 3u);
  scenario::set_param(spec, "alloc.wavelengths", "8");
  EXPECT_EQ(spec.noc.alloc_wavelengths, 8u);
  scenario::set_param(spec, "alloc.frame", "31");
  EXPECT_EQ(spec.noc.alloc_frame, 31u);
  scenario::set_param(spec, "alloc.rounds", "12");
  EXPECT_EQ(spec.noc.alloc_rounds, 12u);
  scenario::set_param(spec, "pattern", "incast");
  EXPECT_EQ(spec.noc.pattern, scenario::NocPattern::kIncast);
  scenario::set_param(spec, "pattern", "broadcast-storm");
  EXPECT_EQ(spec.noc.pattern, scenario::NocPattern::kBroadcastStorm);

  // An infeasible explicit frame is rejected at validation, not at run.
  scenario::ScenarioSpec bad = cac_noc_spec();
  bad.noc.alloc_frame = 7;  // capacity 3 < 6 dies/wavelength
  std::string message;
  try {
    bad.validate();
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("alloc.frame"), std::string::npos) << message;
}

TEST(CacScenario, AllocationIsThreadCountInvariant) {
  // The allocator's stream is keyed (seed, "alloc/<point>"), never by
  // chunk or thread: a CAC sweep must be bit-identical at 1 vs 8
  // runner threads.
  scenario::ScenarioSpec spec = cac_noc_spec();
  spec.sweep = {scenario::SweepAxis::list("dies", {16.0, 24.0}),
                scenario::SweepAxis::categories("mac", {"cac", "token"})};
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport eight = scenario::ScenarioRunner(8).run(spec);
  ASSERT_EQ(one.points.size(), eight.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, eight.points[i].metrics) << "point " << i;
    EXPECT_EQ(one.points[i].rng_draws, eight.points[i].rng_draws) << "point " << i;
    EXPECT_EQ(one.points[i].samples, eight.points[i].samples) << "point " << i;
  }
}

TEST(CacScenario, CacComposesWithNodeFaultReclamation) {
  // fault.mac_reclaim + mac=cac: the survivors' codewords are rebuilt
  // by the same alloc stream and the run stays deterministic.
  scenario::ScenarioSpec spec = cac_noc_spec();
  spec.fault.dead_node_fraction = 0.25;
  spec.fault.mac_reclaim = true;
  const scenario::RunReport one = scenario::ScenarioRunner(1).run(spec);
  const scenario::RunReport four = scenario::ScenarioRunner(4).run(spec);
  ASSERT_EQ(one.points.size(), 1u);
  EXPECT_EQ(one.points[0].metrics, four.points[0].metrics);
  EXPECT_EQ(one.points[0].rng_draws, four.points[0].rng_draws);
  // Live dies still move traffic through the reclaimed schedule.
  const double delivery = one.metric(one.points[0], "delivery_ratio");
  EXPECT_GT(delivery, 0.5);
}

TEST(CacScenario, BroadcastStormDeliveryRatioPin) {
  // Broadcast-storm pattern: every die floods kBroadcast traffic. At
  // light aggregate load on the CAC schedule nearly everything lands;
  // the delivered fraction is pinned with a Wilson interval against
  // drift (an intentional behaviour change must retune this).
  ScaleGuard scale(1.0);
  scenario::ScenarioSpec spec = cac_noc_spec();
  spec.noc.pattern = scenario::NocPattern::kBroadcastStorm;
  spec.noc.offered_load = 0.5;
  spec.budget.samples = 6000;
  const scenario::RunReport r = scenario::ScenarioRunner(1).run(spec);
  ASSERT_EQ(r.points.size(), 1u);
  const double ratio = r.metric(r.points[0], "delivery_ratio");
  // ~0.5 packets/slot aggregate over 4 wavelengths: the schedule keeps
  // up and losses stay rare.
  EXPECT_GT(ratio, 0.90);
  EXPECT_LE(ratio, 1.0);

  // Supersaturated storm: the medium cannot carry it all, so the ratio
  // must drop decisively below the light-load pin.
  scenario::ScenarioSpec heavy = cac_noc_spec();
  heavy.noc.pattern = scenario::NocPattern::kBroadcastStorm;
  heavy.noc.offered_load = 8.0;
  heavy.budget.samples = 6000;
  const scenario::RunReport h = scenario::ScenarioRunner(1).run(heavy);
  const double heavy_ratio = h.metric(h.points[0], "delivery_ratio");
  EXPECT_LT(heavy_ratio, 0.75);
  EXPECT_GT(heavy_ratio, 0.0);
}

}  // namespace
