#include "oci/modulation/frame.hpp"

#include <stdexcept>

namespace oci::modulation {

std::uint8_t crc8(const std::vector<std::uint8_t>& data) {
  std::uint8_t crc = 0x00;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = static_cast<std::uint8_t>((crc & 0x80) ? (crc << 1) ^ 0x07 : (crc << 1));
    }
  }
  return crc;
}

std::uint64_t symbols_for_payload(std::size_t payload_bytes, unsigned bits_per_symbol) {
  if (bits_per_symbol == 0) {
    throw std::invalid_argument("symbols_for_payload: bits_per_symbol must be > 0");
  }
  const std::uint64_t bits = (payload_bytes + 4) * 8;
  return (bits + bits_per_symbol - 1) / bits_per_symbol;
}

std::vector<std::uint64_t> FrameCodec::preamble() const {
  const std::uint64_t hi = ppm_->slot_count() - 1;
  std::vector<std::uint64_t> p(kPreambleSymbols);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = (i % 2 == 0) ? 0 : hi;
  return p;
}

std::size_t FrameCodec::frame_symbols(std::size_t payload_bytes) const {
  const unsigned k = ppm_->config().bits_per_symbol;
  const std::size_t body_bytes = 2 + payload_bytes + 1;  // length, payload, crc
  const std::size_t body_symbols = (body_bytes * 8 + k - 1) / k;
  return kPreambleSymbols + body_symbols;
}

std::vector<std::uint64_t> FrameCodec::serialize(const Frame& frame) const {
  if (frame.payload.size() > kMaxPayload) {
    throw std::invalid_argument("FrameCodec: payload exceeds kMaxPayload");
  }
  std::vector<std::uint8_t> body;
  body.reserve(frame.payload.size() + 3);
  const auto len = static_cast<std::uint16_t>(frame.payload.size());
  body.push_back(static_cast<std::uint8_t>(len >> 8));
  body.push_back(static_cast<std::uint8_t>(len & 0xFF));
  body.insert(body.end(), frame.payload.begin(), frame.payload.end());
  body.push_back(crc8(body));

  std::vector<std::uint64_t> symbols = preamble();
  const std::vector<std::uint64_t> packed = ppm_->pack_bytes(body);
  symbols.insert(symbols.end(), packed.begin(), packed.end());
  return symbols;
}

std::optional<FrameCodec::ParseResult> FrameCodec::deserialize(
    const std::vector<std::uint64_t>& symbols) const {
  const std::vector<std::uint64_t> expected = preamble();
  if (symbols.size() < expected.size()) return std::nullopt;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (symbols[i] != expected[i]) return std::nullopt;
  }

  const std::vector<std::uint64_t> body_symbols(symbols.begin() + expected.size(),
                                                symbols.end());
  // Unpack just the two length bytes first.
  const std::vector<std::uint8_t> head = ppm_->unpack_bytes(body_symbols, 2);
  if (head.size() < 2) return std::nullopt;
  const std::size_t len = (static_cast<std::size_t>(head[0]) << 8) | head[1];
  if (len > kMaxPayload) return std::nullopt;

  const std::size_t body_bytes = 2 + len + 1;
  const std::vector<std::uint8_t> body = ppm_->unpack_bytes(body_symbols, body_bytes);
  if (body.size() < body_bytes) return std::nullopt;  // truncated

  std::vector<std::uint8_t> check(body.begin(), body.begin() + 2 + len);
  if (crc8(check) != body[2 + len]) return std::nullopt;

  ParseResult r;
  r.frame.payload.assign(body.begin() + 2, body.begin() + 2 + len);
  r.symbols_consumed = frame_symbols(len);
  return r;
}

}  // namespace oci::modulation
