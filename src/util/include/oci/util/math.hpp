// Small numeric helpers shared across modules.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace oci::util {

/// True iff n is a power of two (n > 0).
[[nodiscard]] constexpr bool is_power_of_two(std::uint64_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Floor of log2(n); throws for n == 0.
[[nodiscard]] constexpr unsigned ilog2(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("ilog2: n must be > 0");
  return static_cast<unsigned>(63 - std::countl_zero(n));
}

/// Ceil of log2(n); number of bits needed to index n distinct values.
[[nodiscard]] constexpr unsigned bits_for(std::uint64_t n) {
  if (n <= 1) return 0;
  return ilog2(n - 1) + 1;
}

/// Linear interpolation.
[[nodiscard]] constexpr double lerp(double a, double b, double t) {
  return a + (b - a) * t;
}

/// Binary-reflected Gray code and its inverse. Used for PPM slot
/// labelling so adjacent-slot timing errors flip a single bit.
[[nodiscard]] constexpr std::uint64_t to_gray(std::uint64_t n) { return n ^ (n >> 1); }

[[nodiscard]] constexpr std::uint64_t from_gray(std::uint64_t g) {
  std::uint64_t n = g;
  for (std::uint64_t shift = 1; shift < 64; shift <<= 1) n ^= n >> shift;
  return n;
}

}  // namespace oci::util
