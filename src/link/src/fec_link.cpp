#include "oci/link/fec_link.hpp"

#include "oci/modulation/frame.hpp"

namespace oci::link {

FecTransferResult FecLink::transfer(const std::vector<std::uint8_t>& payload,
                                    util::RngStream& rng) const {
  FecTransferResult out;

  std::vector<std::uint8_t> inner = payload;
  inner.push_back(modulation::crc8(payload));
  const std::vector<std::uint8_t> coded = modulation::Hamming84::encode_bytes(inner);

  const std::vector<std::uint64_t> symbols = link_->ppm().pack_bytes(coded);
  const OpticalLink::RunResult run = link_->transmit(symbols, rng);
  out.stats = run.stats;

  const std::vector<std::uint8_t> received =
      link_->ppm().unpack_bytes(run.decoded, coded.size());
  const auto decoded = modulation::Hamming84::decode_bytes(received);
  if (!decoded) return out;  // uncorrectable codeword
  out.corrections = decoded->corrections;

  if (decoded->data.size() != inner.size()) return out;
  std::vector<std::uint8_t> body(decoded->data.begin(), decoded->data.end() - 1);
  if (modulation::crc8(body) != decoded->data.back()) return out;  // residual error
  out.payload = std::move(body);
  return out;
}

}  // namespace oci::link
