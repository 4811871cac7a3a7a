#include "oci/modulation/mppm.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace oci::modulation {

namespace {

/// Exact C(n, k) with saturation at uint64 max on overflow.
std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    // result = result * factor / i, exact at every step; guard overflow.
    if (result > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * factor / i;
  }
  return result;
}

}  // namespace

std::uint64_t constrained_codewords(std::uint64_t slots, unsigned pulses,
                                    std::uint64_t separation) {
  if (pulses == 0 || separation == 0) return 0;
  const std::uint64_t shrink = static_cast<std::uint64_t>(pulses - 1) * (separation - 1);
  if (shrink >= slots) return 0;
  return binomial(slots - shrink, pulses);
}

MppmCodec::MppmCodec(const MppmConfig& config) : config_(config) {
  if (config_.slots == 0 || config_.slots > 4096) {
    throw std::invalid_argument("MppmCodec: slots must be in [1, 4096]");
  }
  if (config_.pulses == 0 || config_.pulses > 8) {
    throw std::invalid_argument("MppmCodec: pulses must be in [1, 8]");
  }
  if (config_.min_slot_separation == 0) {
    throw std::invalid_argument("MppmCodec: separation must be >= 1");
  }
  count_ = constrained_codewords(config_.slots, config_.pulses, config_.min_slot_separation);
  if (count_ < 2) {
    throw std::invalid_argument("MppmCodec: geometry admits fewer than two codewords");
  }
  if (count_ == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument("MppmCodec: codeword count overflows 64 bits");
  }
  bits_ = static_cast<unsigned>(std::floor(std::log2(static_cast<double>(count_))));
}

std::vector<std::uint64_t> MppmCodec::unrank(std::uint64_t r) const {
  const std::uint64_t sep = config_.min_slot_separation;
  const unsigned w = config_.pulses;
  const std::uint64_t m =
      config_.slots - static_cast<std::uint64_t>(w - 1) * (sep - 1);

  // Lexicographic unranking of a w-combination of [0, m).
  std::vector<std::uint64_t> gaps(w);
  std::uint64_t x = r;
  std::uint64_t v = 0;
  for (unsigned i = 0; i < w; ++i) {
    while (true) {
      const std::uint64_t cnt = binomial(m - 1 - v, w - 1 - i);
      if (x < cnt) break;
      x -= cnt;
      ++v;
    }
    gaps[i] = v;
    ++v;
  }
  // Gap substitution back to constrained slot indices.
  std::vector<std::uint64_t> slots(w);
  for (unsigned i = 0; i < w; ++i) {
    slots[i] = gaps[i] + static_cast<std::uint64_t>(i) * (sep - 1);
  }
  return slots;
}

std::uint64_t MppmCodec::rank(const std::vector<std::uint64_t>& slot_set) const {
  const std::uint64_t sep = config_.min_slot_separation;
  const unsigned w = config_.pulses;
  const std::uint64_t m =
      config_.slots - static_cast<std::uint64_t>(w - 1) * (sep - 1);

  std::uint64_t r = 0;
  std::uint64_t v = 0;
  for (unsigned i = 0; i < w; ++i) {
    const std::uint64_t y = slot_set[i] - static_cast<std::uint64_t>(i) * (sep - 1);
    for (std::uint64_t u = v; u < y; ++u) {
      r += binomial(m - 1 - u, w - 1 - i);
    }
    v = y + 1;
  }
  return r;
}

std::vector<std::uint64_t> MppmCodec::encode(std::uint64_t symbol) const {
  if (symbol >= (std::uint64_t{1} << bits_)) {
    throw std::invalid_argument("MppmCodec: symbol out of range");
  }
  return unrank(symbol);
}

std::uint64_t MppmCodec::decode(const std::vector<std::uint64_t>& slot_set) const {
  if (slot_set.size() != config_.pulses) {
    throw std::invalid_argument("MppmCodec: wrong pulse count");
  }
  for (std::size_t i = 0; i < slot_set.size(); ++i) {
    if (slot_set[i] >= config_.slots) {
      throw std::invalid_argument("MppmCodec: slot index out of range");
    }
    if (i > 0 && slot_set[i] < slot_set[i - 1] + config_.min_slot_separation) {
      throw std::invalid_argument("MppmCodec: separation rule violated");
    }
  }
  const std::uint64_t r = rank(slot_set);
  if (r >= (std::uint64_t{1} << bits_)) {
    throw std::invalid_argument("MppmCodec: codeword outside the used symbol range");
  }
  return r;
}

}  // namespace oci::modulation
