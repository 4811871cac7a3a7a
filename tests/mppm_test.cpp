// Tests for the multipulse-PPM codec (the SPAD-array-enabled scheme).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "oci/modulation/mppm.hpp"

using namespace oci;
using modulation::MppmCodec;
using modulation::MppmConfig;
using util::Time;

TEST(Mppm, ConstrainedCountMatchesBruteForce) {
  // Enumerate all w-subsets of n slots with pairwise distance >= sep
  // and compare with the closed form.
  for (std::uint64_t n : {6ull, 9ull, 12ull}) {
    for (unsigned w : {2u, 3u}) {
      for (std::uint64_t sep : {1ull, 2ull, 3ull}) {
        std::uint64_t brute = 0;
        std::vector<std::uint64_t> idx(w);
        // Odometer over ascending subsets.
        const auto valid = [&](const std::vector<std::uint64_t>& v) {
          for (std::size_t i = 1; i < v.size(); ++i) {
            if (v[i] < v[i - 1] + sep) return false;
          }
          return true;
        };
        std::vector<std::uint64_t> v(w);
        for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
          if (static_cast<unsigned>(__builtin_popcountll(mask)) != w) continue;
          std::size_t j = 0;
          for (std::uint64_t b = 0; b < n; ++b) {
            if (mask & (1ull << b)) v[j++] = b;
          }
          if (valid(v)) ++brute;
        }
        EXPECT_EQ(modulation::constrained_codewords(n, w, sep), brute)
            << "n=" << n << " w=" << w << " sep=" << sep;
      }
    }
  }
}

TEST(Mppm, RejectsBadGeometry) {
  MppmConfig c;
  c.slots = 0;
  EXPECT_THROW(MppmCodec{c}, std::invalid_argument);
  c = MppmConfig{};
  c.pulses = 0;
  EXPECT_THROW(MppmCodec{c}, std::invalid_argument);
  c = MppmConfig{};
  c.min_slot_separation = 0;
  EXPECT_THROW(MppmCodec{c}, std::invalid_argument);
  c = MppmConfig{};
  c.slots = 3;
  c.pulses = 2;
  c.min_slot_separation = 3;  // only one codeword {0, 3} doesn't exist... none fit
  EXPECT_THROW(MppmCodec{c}, std::invalid_argument);
}

TEST(Mppm, BitsBeatSinglePulsePpmAtLargeN) {
  // 64 slots: PPM carries 6 bits; 2-pulse MPPM carries log2(C(64,2)) =
  // log2(2016) -> 10 bits in the same window.
  MppmConfig c;
  c.slots = 64;
  c.pulses = 2;
  const MppmCodec codec(c);
  EXPECT_EQ(codec.codeword_count(), 2016u);
  EXPECT_EQ(codec.bits_per_symbol(), 10u);
}

TEST(Mppm, SeparationRuleCostsBits) {
  MppmConfig c;
  c.slots = 64;
  c.pulses = 2;
  c.min_slot_separation = 8;  // array recovery = 8 slots
  const MppmCodec codec(c);
  // C(64 - 7, 2) = C(57, 2) = 1596 -> still 10 bits.
  EXPECT_EQ(codec.codeword_count(), 1596u);
  EXPECT_EQ(codec.bits_per_symbol(), 10u);
}

TEST(Mppm, RoundTripsEverySymbol) {
  MppmConfig c;
  c.slots = 24;
  c.pulses = 3;
  c.min_slot_separation = 2;
  const MppmCodec codec(c);
  std::set<std::vector<std::uint64_t>> seen;
  for (std::uint64_t s = 0; s < (1ull << codec.bits_per_symbol()); ++s) {
    const auto slots = codec.encode(s);
    ASSERT_EQ(slots.size(), 3u);
    // Ascending with the separation honoured.
    for (std::size_t i = 1; i < slots.size(); ++i) {
      EXPECT_GE(slots[i], slots[i - 1] + 2);
    }
    EXPECT_LT(slots.back(), 24u);
    EXPECT_TRUE(seen.insert(slots).second) << "duplicate codeword for symbol " << s;
    EXPECT_EQ(codec.decode(slots), s);
  }
}

TEST(Mppm, DecodeValidatesInput) {
  MppmConfig c;
  c.slots = 16;
  c.pulses = 2;
  c.min_slot_separation = 2;
  const MppmCodec codec(c);
  EXPECT_THROW((void)codec.decode({3}), std::invalid_argument);           // wrong count
  EXPECT_THROW((void)codec.decode({3, 16}), std::invalid_argument);      // out of range
  EXPECT_THROW((void)codec.decode({3, 4}), std::invalid_argument);       // separation
}

TEST(Mppm, SinglePulseDegeneratesToPpm) {
  MppmConfig c;
  c.slots = 32;
  c.pulses = 1;
  const MppmCodec codec(c);
  EXPECT_EQ(codec.codeword_count(), 32u);
  EXPECT_EQ(codec.bits_per_symbol(), 5u);
  for (std::uint64_t s = 0; s < 32; ++s) {
    EXPECT_EQ(codec.encode(s), std::vector<std::uint64_t>{s});
  }
}
