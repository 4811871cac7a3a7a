// Link-layer framing for the optical channel: a sync preamble (known
// slot pattern the receiver can lock to), a length field, the payload,
// and a CRC-8 so corrupted frames are detected rather than delivered.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "oci/modulation/ppm.hpp"

namespace oci::modulation {

/// CRC-8/ATM (poly 0x07, init 0x00). Small but adequate for the short
/// frames of an on-chip link.
[[nodiscard]] std::uint8_t crc8(const std::vector<std::uint8_t>& data);

/// Transfer symbols a packet of `payload_bytes` plus 4 bytes of framing
/// (preamble + header + CRC) occupies at K bits per PPM symbol: the
/// photon-level delivery model's (link::SymbolDeliveryModel)
/// packet-on-air sizing. Throws std::invalid_argument when
/// bits_per_symbol is zero.
[[nodiscard]] std::uint64_t symbols_for_payload(std::size_t payload_bytes,
                                                unsigned bits_per_symbol);

struct Frame {
  std::vector<std::uint8_t> payload;
};

/// Serializes frames to PPM symbol streams and back. Layout:
///   preamble | length_hi | length_lo | payload bytes | crc8
/// where every field after the preamble is carried in K-bit symbols.
class FrameCodec {
 public:
  /// Preamble length; the pattern alternates the extreme slots (0 and
  /// 2^K-1), which no payload misdecode can fake for long.
  static constexpr std::size_t kPreambleSymbols = 4;
  /// Largest payload serialize accepts and deserialize believes.
  static constexpr std::size_t kMaxPayload = 4096;

  explicit FrameCodec(const PpmCodec& ppm) : ppm_(&ppm) {}

  /// Symbol stream for one frame (preamble + header + payload + CRC).
  [[nodiscard]] std::vector<std::uint64_t> serialize(const Frame& frame) const;

  /// Attempts to parse a frame from the start of `symbols`. Returns
  /// nullopt if the preamble does not match, the length is implausible,
  /// the stream is truncated, or the CRC fails. On success also reports
  /// how many symbols were consumed.
  struct ParseResult {
    Frame frame;
    std::size_t symbols_consumed = 0;
  };
  [[nodiscard]] std::optional<ParseResult> deserialize(
      const std::vector<std::uint64_t>& symbols) const;

  /// The preamble pattern as symbol values.
  [[nodiscard]] std::vector<std::uint64_t> preamble() const;

  /// Total symbols needed for a payload of the given size.
  [[nodiscard]] std::size_t frame_symbols(std::size_t payload_bytes) const;

 private:
  const PpmCodec* ppm_;
};

}  // namespace oci::modulation
