// Conflict-avoiding codes (CAC) and the decentralised slot/wavelength
// allocator behind net::CacMac (mac.hpp).
//
// A CAC of length L assigns each transmitter a codeword C ⊂ Z_L (the
// frame slots it pulses in). The defining property is on the difference
// sets Δ(C) = {a - b mod L : a, b ∈ C, a != b}: distinct codewords have
// DISJOINT difference sets, so however two nodes' frame phases drift,
// their transmission patterns overlap in at most ONE slot per frame
// (λ <= 1). A node with weight-w codeword contending with k-1 active
// neighbours therefore keeps >= w-(k-1) collision-free slots per frame
// -- a distributed schedule with no token ring and no central arbiter.
//
// Construction: for a prime frame length p we use the equi-difference
// family C_g = {0, g, 2g, ..., (w-1)g} mod p whose difference set is
// {±g, ±2g, ..., ±(w-1)g}. A greedy pass over the generators g packs
// pairwise-disjoint difference sets; for w = 2 this reaches the optimal
// (p-1)/2 codewords of the prime-length constructions (PAPERS.md:
// "Conflict-Avoiding Codes of Prime Lengths").
//
// DistributedAllocator then assigns every node a wavelength, a codeword
// and a frame phase (cyclic shift) C-CoCoA-style: a deterministic
// round-robin of local moves where each node re-picks the phase that
// minimises its conflict count against the neighbours sharing its
// wavelength, until a full round changes nothing. The pass is a pure
// function of (config, RNG stream): scenario runs key the stream as
// (seed, "alloc/<point>") so allocations are bit-identical across
// threads and shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oci/util/random.hpp"

namespace oci::net::cac {

/// Deterministic trial-division primality (frame lengths are small).
[[nodiscard]] bool is_prime(std::uint64_t n);

/// Smallest prime >= n (n <= 1: returns 2).
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n);

/// Greedy equi-difference generator family for CAC(p, weight): every
/// returned g yields codeword {0, g, ..., (weight-1)g} mod p, and the
/// generators' difference sets are pairwise disjoint. Requires prime p
/// with p > 2*(weight-1) and weight >= 2; throws std::invalid_argument
/// otherwise. Generators come out in increasing order (deterministic).
[[nodiscard]] std::vector<std::uint32_t> equi_difference_generators(std::uint64_t p,
                                                                    std::size_t weight);

/// The codeword of generator g: {0, g, 2g, ..., (weight-1)g} mod p,
/// sorted ascending. weight == 1 ignores g and returns {0} (the
/// degenerate single-slot code; distinct phases make it plain TDMA).
[[nodiscard]] std::vector<std::uint32_t> codeword(std::uint32_t g, std::size_t weight,
                                                  std::uint64_t p);

/// Codewords of weight `weight` a prime frame of length p can carry
/// with pairwise-disjoint difference sets (p for weight 1).
[[nodiscard]] std::size_t frame_capacity(std::uint64_t p, std::size_t weight);

/// Smallest prime frame length whose capacity fits `count` codewords of
/// the given weight. count == 0 is treated as 1.
[[nodiscard]] std::uint64_t auto_frame(std::size_t count, std::size_t weight);

/// Input of one allocation pass.
struct AllocConfig {
  std::size_t nodes = 0;        ///< transmitters to schedule (>= 1)
  std::size_t wavelengths = 1;  ///< independent WDM channels (>= 1)
  std::size_t weight = 2;       ///< codeword weight w (>= 1)
  /// Frame length; 0 = auto (smallest prime fitting ceil(nodes /
  /// wavelengths) codewords per wavelength). An explicit value must be
  /// a prime with enough capacity.
  std::uint64_t frame = 0;
  /// Max local-refinement rounds; the pass stops early on a round with
  /// no improving move.
  unsigned rounds = 8;
};

/// Output: per-node wavelength + phased codeword slots.
struct Allocation {
  std::uint64_t frame = 1;      ///< prime frame length p
  std::size_t wavelengths = 1;
  std::vector<std::uint32_t> wavelength;  ///< per node, < wavelengths
  std::vector<std::uint32_t> phase;       ///< per node cyclic shift, < frame
  /// Per node: the phased slots {(phase + c) mod p : c in codeword},
  /// sorted ascending. This is the node's transmission schedule.
  std::vector<std::vector<std::uint32_t>> slots;
  /// Residual packing defect: sum over (wavelength, slot) cells of
  /// (owners - 1) for cells with >= 2 owners. 0 = a collision-free
  /// schedule even under full backlog.
  std::uint64_t conflict_mass = 0;
  unsigned rounds_used = 0;  ///< refinement rounds actually run
};

/// Decentralised wavelength/slot assignment in the spirit of C-CoCoA's
/// cooperative local optimisation (PAPERS.md): wavelengths are a
/// balanced colouring, codewords come from the equi-difference family
/// of each wavelength, and the frame phases are refined by rounds of
/// locally-optimal moves against neighbour conflict counts. Every node
/// evaluates all p phases against the current slot-occupancy of its
/// wavelength (O(p * w) per node per round -- a one-time setup cost,
/// nothing here runs per simulated slot).
class DistributedAllocator {
 public:
  /// Throws std::invalid_argument on an infeasible config (zero nodes,
  /// zero wavelengths/weight, or an explicit frame that is not prime or
  /// too small for ceil(nodes / wavelengths) codewords).
  explicit DistributedAllocator(AllocConfig config);

  [[nodiscard]] const AllocConfig& config() const { return config_; }
  /// Resolved frame length (after auto selection).
  [[nodiscard]] std::uint64_t frame() const { return frame_; }

  /// Runs the allocation pass. Deterministic: the result is a pure
  /// function of the config and the stream's seed (initial phases are
  /// the only draws; refinement is an ordered deterministic scan).
  [[nodiscard]] Allocation allocate(util::RngStream& rng) const;

 private:
  AllocConfig config_;
  std::uint64_t frame_ = 0;
};

}  // namespace oci::net::cac
