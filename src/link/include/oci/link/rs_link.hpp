// Reed-Solomon-protected transfer over the optical link.
//
// Where FecLink (Hamming SECDED) targets the single-bit Gray spills of
// a jittery slot decision, RsLink targets the full error zoo of the
// SPAD receiver:
//
//   * noise captures (dark count / afterpulse / background fires first)
//     corrupt a whole PPM symbol -> an arbitrary byte error, which RS
//     corrects outright (SECDED can only drop the frame);
//   * no-detection windows are KNOWN positions -- the link reports them
//     as erasures and RS corrects them at half the parity cost
//     (2*errors + erasures <= parity per block).
//
//   payload -> [payload | CRC8] -> RS blocks (k data + p parity)
//           -> PPM symbols -> link -> erasure-aware RS decode -> CRC
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "oci/link/optical_link.hpp"
#include "oci/modulation/reed_solomon.hpp"

namespace oci::link {

struct RsLinkConfig {
  std::size_t block_data_bytes = 32;  ///< k per RS block (last block shorter)
  std::size_t parity_bytes = 8;       ///< p per block; corrects p/2 errors
  /// Pass the link's no-detection positions to the decoder. Off, every
  /// erasure is an unknown-position error costing twice the parity --
  /// the ablation knob for bench/abl_rs.
  bool use_erasure_flags = true;
};

struct RsTransferResult {
  std::optional<std::vector<std::uint8_t>> payload;  ///< nullopt = lost
  std::size_t corrected_errors = 0;    ///< unknown-position byte fixes
  std::size_t corrected_erasures = 0;  ///< known-position byte fixes
  LinkRunStats stats;
};

class RsLink {
 public:
  /// Throws std::invalid_argument for an invalid RS geometry.
  RsLink(const OpticalLink& link, const RsLinkConfig& config = {});

  [[nodiscard]] const RsLinkConfig& config() const { return config_; }

  /// Coded bytes on air for a payload of the given size (incl. CRC).
  [[nodiscard]] std::size_t coded_bytes_for(std::size_t payload_bytes) const;

  /// Encodes, transmits and decodes one payload.
  [[nodiscard]] RsTransferResult transfer(const std::vector<std::uint8_t>& payload,
                                          util::RngStream& rng) const;

 private:
  const OpticalLink* link_;
  RsLinkConfig config_;
};

}  // namespace oci::link
