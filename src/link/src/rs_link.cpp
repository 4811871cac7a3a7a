#include "oci/link/rs_link.hpp"

#include <stdexcept>

#include "oci/modulation/frame.hpp"

namespace oci::link {

namespace {

/// Marks byte i of the coded stream erased when ANY of the PPM symbols
/// that carry bits of byte i reported a no-detection window. Bytes are
/// packed MSB-first into K-bit symbols, so byte i occupies bit range
/// [8i, 8i+8) and symbols floor(8i/K) .. floor((8i+7)/K).
std::vector<std::size_t> erased_bytes(const std::vector<bool>& symbol_erased, unsigned k,
                                      std::size_t byte_count) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < byte_count; ++i) {
    const std::size_t first_symbol = (8 * i) / k;
    const std::size_t last_symbol = (8 * i + 7) / k;
    for (std::size_t s = first_symbol; s <= last_symbol && s < symbol_erased.size(); ++s) {
      if (symbol_erased[s]) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace

RsLink::RsLink(const OpticalLink& link, const RsLinkConfig& config)
    : link_(&link), config_(config) {
  // Validate the geometry once; per-block codecs reuse it.
  const modulation::ReedSolomon probe(config_.block_data_bytes, config_.parity_bytes);
  (void)probe;
}

std::size_t RsLink::coded_bytes_for(std::size_t payload_bytes) const {
  const std::size_t inner = payload_bytes + 1;  // + CRC8
  const std::size_t full_blocks = inner / config_.block_data_bytes;
  const std::size_t tail = inner % config_.block_data_bytes;
  return inner + (full_blocks + (tail > 0 ? 1 : 0)) * config_.parity_bytes;
}

RsTransferResult RsLink::transfer(const std::vector<std::uint8_t>& payload,
                                  util::RngStream& rng) const {
  RsTransferResult out;

  std::vector<std::uint8_t> inner = payload;
  inner.push_back(modulation::crc8(payload));

  // Block-encode: full blocks of block_data_bytes, shortened tail.
  std::vector<std::uint8_t> coded;
  coded.reserve(coded_bytes_for(payload.size()));
  std::vector<std::size_t> block_data_sizes;
  for (std::size_t off = 0; off < inner.size(); off += config_.block_data_bytes) {
    const std::size_t len = std::min(config_.block_data_bytes, inner.size() - off);
    const modulation::ReedSolomon rs(len, config_.parity_bytes);
    const auto block =
        rs.encode({inner.data() + off, len});
    coded.insert(coded.end(), block.begin(), block.end());
    block_data_sizes.push_back(len);
  }

  const std::vector<std::uint64_t> symbols = link_->ppm().pack_bytes(coded);
  const OpticalLink::RunResult run = link_->transmit(symbols, rng);
  out.stats = run.stats;

  const std::vector<std::uint8_t> received =
      link_->ppm().unpack_bytes(run.decoded, coded.size());
  const std::vector<std::size_t> erased =
      config_.use_erasure_flags
          ? erased_bytes(run.erased, link_->bits_per_symbol(), coded.size())
          : std::vector<std::size_t>{};

  // Block-decode with per-block erasure lists.
  std::vector<std::uint8_t> decoded;
  decoded.reserve(inner.size());
  std::size_t block_start = 0;
  std::size_t erased_cursor = 0;
  for (const std::size_t data_len : block_data_sizes) {
    const std::size_t block_len = data_len + config_.parity_bytes;
    std::vector<std::size_t> block_erasures;
    while (erased_cursor < erased.size() && erased[erased_cursor] < block_start + block_len) {
      if (erased[erased_cursor] >= block_start) {
        block_erasures.push_back(erased[erased_cursor] - block_start);
      }
      ++erased_cursor;
    }
    const modulation::ReedSolomon rs(data_len, config_.parity_bytes);
    const auto result =
        rs.decode({received.data() + block_start, block_len}, block_erasures);
    if (!result) return out;  // uncorrectable block
    out.corrected_errors += result->corrected_errors;
    out.corrected_erasures += result->corrected_erasures;
    decoded.insert(decoded.end(), result->data.begin(), result->data.end());
    block_start += block_len;
  }

  if (decoded.size() != inner.size()) return out;
  std::vector<std::uint8_t> body(decoded.begin(), decoded.end() - 1);
  if (modulation::crc8(body) != decoded.back()) return out;  // residual error
  out.payload = std::move(body);
  return out;
}

}  // namespace oci::link
