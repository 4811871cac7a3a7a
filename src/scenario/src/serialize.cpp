#include "oci/scenario/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace oci::scenario {

namespace {

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Self-contained so the result store needs no
// external dependency; throughput is irrelevant here (specs are ~2 KB).

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

struct Sha256 {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> block{};
  std::size_t block_len = 0;
  std::uint64_t total_bytes = 0;

  void compress(const std::uint8_t* p) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(p[4 * i]) << 24) | (std::uint32_t(p[4 * i + 1]) << 16) |
             (std::uint32_t(p[4 * i + 2]) << 8) | std::uint32_t(p[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, hh] = h;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }

  void update(const std::uint8_t* data, std::size_t len) {
    total_bytes += len;
    while (len > 0) {
      const std::size_t take = std::min(len, block.size() - block_len);
      std::memcpy(block.data() + block_len, data, take);
      block_len += take;
      data += take;
      len -= take;
      if (block_len == block.size()) {
        compress(block.data());
        block_len = 0;
      }
    }
  }

  std::string finish_hex() {
    const std::uint64_t bits = total_bytes * 8;
    const std::uint8_t one = 0x80;
    update(&one, 1);
    const std::uint8_t zero = 0x00;
    while (block_len != 56) update(&zero, 1);
    std::array<std::uint8_t, 8> len_be;
    for (std::size_t i = 0; i < 8; ++i) {
      len_be[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    // update() already counted the padding; the length field closes the
    // final block regardless of the running total.
    std::memcpy(block.data() + block_len, len_be.data(), 8);
    compress(block.data());
    std::string out(64, '0');
    for (std::size_t i = 0; i < 8; ++i) {
      char buf[9];
      std::snprintf(buf, sizeof buf, "%08x", h[i]);
      std::memcpy(out.data() + 8 * i, buf, 8);
    }
    return out;
  }
};

}  // namespace

std::string sha256_hex(std::string_view data) {
  Sha256 sha;
  sha.update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  return sha.finish_hex();
}

std::string spec_hash(const ScenarioSpec& spec) {
  return sha256_hex(canonical_spec_text(spec));
}

}  // namespace oci::scenario
