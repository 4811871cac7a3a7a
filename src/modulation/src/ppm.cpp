#include "oci/modulation/ppm.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "oci/util/math.hpp"

namespace oci::modulation {

PpmCodec::PpmCodec(const PpmConfig& config) : config_(config) {
  if (config_.bits_per_symbol == 0 || config_.bits_per_symbol > 20) {
    throw std::invalid_argument("PpmCodec: bits_per_symbol must be in [1,20]");
  }
  if (config_.slot_width <= Time::zero()) {
    throw std::invalid_argument("PpmCodec: slot width must be positive");
  }
  slots_ = std::uint64_t{1} << config_.bits_per_symbol;
}

std::uint64_t PpmCodec::slot_for_symbol(std::uint64_t symbol) const {
  if (symbol >= slots_) throw std::invalid_argument("PpmCodec: symbol out of range");
  // The slot's SYMBOL label must be the Gray code of the slot index so
  // that adjacent slots decode to symbols one bit apart; the encoder
  // therefore inverts the Gray map.
  return config_.labeling == SlotLabeling::kGray ? util::from_gray(symbol) : symbol;
}

Time PpmCodec::encode(std::uint64_t symbol) const {
  const std::uint64_t slot = slot_for_symbol(symbol);
  return config_.slot_width * (static_cast<double>(slot) + 0.5);
}

unsigned PpmCodec::hamming(std::uint64_t a, std::uint64_t b) {
  return static_cast<unsigned>(std::popcount(a ^ b));
}

std::vector<std::uint64_t> PpmCodec::pack_bytes(const std::vector<std::uint8_t>& bytes) const {
  const unsigned k = config_.bits_per_symbol;
  std::vector<std::uint64_t> symbols;
  symbols.reserve((bytes.size() * 8 + k - 1) / k);
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::uint8_t byte : bytes) {
    acc = (acc << 8) | byte;
    acc_bits += 8;
    while (acc_bits >= k) {
      symbols.push_back((acc >> (acc_bits - k)) & ((std::uint64_t{1} << k) - 1));
      acc_bits -= k;
    }
  }
  if (acc_bits > 0) {
    // Zero-pad the final partial symbol on the right (LSB side).
    symbols.push_back((acc << (k - acc_bits)) & ((std::uint64_t{1} << k) - 1));
  }
  return symbols;
}

std::vector<std::uint8_t> PpmCodec::unpack_bytes(const std::vector<std::uint64_t>& symbols,
                                                 std::size_t byte_count) const {
  const unsigned k = config_.bits_per_symbol;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(byte_count);
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::uint64_t s : symbols) {
    acc = (acc << k) | (s & ((std::uint64_t{1} << k) - 1));
    acc_bits += k;
    while (acc_bits >= 8 && bytes.size() < byte_count) {
      bytes.push_back(static_cast<std::uint8_t>((acc >> (acc_bits - 8)) & 0xFF));
      acc_bits -= 8;
    }
    if (bytes.size() == byte_count) break;
  }
  return bytes;
}

}  // namespace oci::modulation
