#include "oci/tdc/thermometer.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace oci::tdc {

namespace {

std::size_t ones_count(std::span<const std::uint8_t> code) {
  return static_cast<std::size_t>(std::count(code.begin(), code.end(), std::uint8_t{1}));
}

}  // namespace

std::size_t decode_thermometer(std::span<const std::uint8_t> code) {
  if (code.size() < 3) return ones_count(code);
  std::size_t filtered_ones = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    // 3-tap neighbourhood with edge replication.
    const std::uint8_t a = code[i == 0 ? 0 : i - 1];
    const std::uint8_t b = code[i];
    const std::uint8_t c = code[i + 1 < code.size() ? i + 1 : code.size() - 1];
    if (a + b + c >= 2) ++filtered_ones;
  }
  return filtered_ones;
}

LatchRegimes latch_regimes(const DelayLine& line, Time interval, Time metastability_window) {
  const std::span<const double> b = line.boundaries_seconds();  // size N+1
  const std::size_t n = line.size();
  const double t = interval.seconds();
  const double meta = metastability_window.seconds();

  // Tap i switches at b[i+1]; its margin t - b[i+1] is (weakly)
  // monotone decreasing in i, so the three latch regimes form a
  // deterministic-1 prefix, a metastable middle, and a deterministic-0
  // suffix. The walk evaluates sample()'s per-tap predicates, so it
  // lands on the prefix's exact end from any start and for any window;
  // the line's bucket guess starts it a step or two away at the line's
  // own window. The metastable middle is short (at most one tap at the
  // default window) and each of its taps costs a coin anyway, so a
  // forward scan finds its end.
  std::size_t ones = line.settled_ones_guess(t);
  while (ones > 0 && !latches_one(t - b[ones], meta)) --ones;
  while (ones < n && latches_one(t - b[ones + 1], meta)) ++ones;
  std::size_t meta_end = ones;
  while (meta_end < n && t - b[meta_end + 1] > -meta) ++meta_end;
  return {ones, meta_end - ones};
}

std::size_t decode_latched(std::size_t taps, std::size_t ones,
                           std::span<const std::uint8_t> bits) {
  const std::size_t zero_from = ones + bits.size();

  // Degenerate chains fall back to population count, as
  // decode_thermometer does.
  if (taps < 3) return ones + ones_count(bits);

  // Only positions whose 3-tap neighbourhood touches a racing tap can
  // deviate from the clean prefix/suffix; evaluate just those against
  // the racing bits and count the rest analytically.
  const auto bit_at = [&](std::ptrdiff_t i) -> int {
    // Edge replication, as the full filter applies at the chain ends.
    if (i < 0) i = 0;
    if (i >= static_cast<std::ptrdiff_t>(taps)) i = static_cast<std::ptrdiff_t>(taps) - 1;
    const auto u = static_cast<std::size_t>(i);
    if (u < ones) return 1;
    if (u >= zero_from) return 0;
    return bits[u - ones];
  };

  // Positions 0 .. ones-2 filter to 1, positions zero_from+1 .. taps-1 to 0.
  std::size_t filtered_ones = ones >= 2 ? ones - 1 : 0;
  const std::size_t lo = ones == 0 ? 0 : ones - 1;
  const std::size_t hi = std::min(zero_from, taps - 1);
  for (std::size_t p = lo; p <= hi; ++p) {
    if (bit_at(static_cast<std::ptrdiff_t>(p) - 1) + bit_at(static_cast<std::ptrdiff_t>(p)) +
            bit_at(static_cast<std::ptrdiff_t>(p) + 1) >=
        2) {
      ++filtered_ones;
    }
  }
  return filtered_ones;
}

namespace {

/// sample_and_decode with `coin()` resolving each racing tap.
template <typename Coin>
std::size_t latch_and_decode(const DelayLine& line, Time interval, Coin&& coin) {
  const LatchRegimes r = latch_regimes(line, interval, line.params().metastability_window);
  // No tap races: the majority filter reads a clean code as its count
  // of ones, and no coin is drawn.
  if (r.racing == 0) return r.ones;
  constexpr std::size_t kInlineBits = 64;
  std::array<std::uint8_t, kInlineBits> inline_bits{};
  std::vector<std::uint8_t> spill_bits;
  std::uint8_t* bits = inline_bits.data();
  if (r.racing > kInlineBits) {
    spill_bits.resize(r.racing);
    bits = spill_bits.data();
  }
  // One coin per racing tap, in tap order -- sample()'s draws exactly.
  for (std::size_t i = 0; i < r.racing; ++i) bits[i] = coin();
  return decode_latched(line.size(), r.ones, {bits, r.racing});
}

}  // namespace

std::size_t sample_and_decode(const DelayLine& line, Time interval, RngStream& rng) {
  return latch_and_decode(line, interval,
                          [&rng] { return static_cast<std::uint8_t>(rng.bernoulli(0.5)); });
}

std::size_t sample_and_decode(const DelayLine& line, Time interval, util::CounterRng& coins) {
  return latch_and_decode(line, interval,
                          [&coins] { return static_cast<std::uint8_t>(coins.next_u64() >> 63); });
}

}  // namespace oci::tdc
