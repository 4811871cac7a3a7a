// Multipulse PPM (MPPM): w optical pulses per TOA window instead of
// one. Classic PPM carries log2(n) bits in n slots; placing w pulses
// carries log2(C(n, w)) bits -- a substantial gain at large n -- but a
// single SPAD cannot see a second pulse inside its dead time, so MPPM
// is the modulation that the SPAD-ARRAY receiver (spad/array.hpp)
// unlocks: with M diodes the array recovers in dead/M and can resolve
// pulses a few slots apart.
//
// The design constraint is captured by `min_slot_separation`: any two
// pulses of a codeword must sit at least that many slots apart (set it
// from ceil(effective_dead_time / slot_width)). The codec enumerates
// exactly the separation-feasible codewords, so the bit count reflects
// what the chosen receiver can actually decode.
#pragma once

#include <cstdint>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::modulation {

using util::Time;

struct MppmConfig {
  std::uint64_t slots = 32;          ///< n
  unsigned pulses = 2;               ///< w
  /// Minimum slot distance between two pulses of one codeword (1 =
  /// adjacent slots allowed). Derive from the receiver's recovery time.
  std::uint64_t min_slot_separation = 1;
};

/// Number of w-subsets of n slots with pairwise distance >=
/// `separation` (stars-and-bars: C(n - (w-1)(separation-1), w)).
[[nodiscard]] std::uint64_t constrained_codewords(std::uint64_t slots, unsigned pulses,
                                                  std::uint64_t separation);

class MppmCodec {
 public:
  /// Throws std::invalid_argument when the geometry yields fewer than
  /// two codewords or overflows 64-bit enumeration.
  explicit MppmCodec(const MppmConfig& config);

  [[nodiscard]] const MppmConfig& config() const { return config_; }
  /// Total separation-feasible codewords.
  [[nodiscard]] std::uint64_t codeword_count() const { return count_; }
  /// Bits per window: floor(log2(codeword_count)).
  [[nodiscard]] unsigned bits_per_symbol() const { return bits_; }

  /// Symbol (< 2^bits) -> ascending slot indices of the w pulses.
  [[nodiscard]] std::vector<std::uint64_t> encode(std::uint64_t symbol) const;
  /// Ascending slot indices -> symbol. Slot sets that violate the
  /// separation rule or exceed the symbol range throw.
  [[nodiscard]] std::uint64_t decode(const std::vector<std::uint64_t>& slot_set) const;

 private:
  /// Maps a separation-constrained rank onto the underlying unconstrained
  /// combination rank via the gap substitution y_i = x_i - i*(sep-1).
  [[nodiscard]] std::vector<std::uint64_t> unrank(std::uint64_t rank) const;
  [[nodiscard]] std::uint64_t rank(const std::vector<std::uint64_t>& slot_set) const;

  MppmConfig config_;
  std::uint64_t count_ = 0;
  unsigned bits_ = 0;
};

}  // namespace oci::modulation
