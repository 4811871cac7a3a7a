// FEC-protected transfer over the optical link. Plain framing (CRC-8
// drop-on-error) wastes a whole frame whenever one Gray-labelled jitter
// spill flips a single bit; layering Hamming(8,4) SECDED *below* the
// integrity check turns those into silent corrections:
//
//   payload -> [payload | CRC8] -> Hamming(8,4) -> PPM symbols -> link
//
// Double-bit codeword errors (noise captures) are detected and the
// transfer is reported lost rather than delivered corrupted.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "oci/link/optical_link.hpp"
#include "oci/modulation/fec.hpp"

namespace oci::link {

struct FecTransferResult {
  std::optional<std::vector<std::uint8_t>> payload;  ///< nullopt = lost
  std::size_t corrections = 0;  ///< single-bit errors silently fixed
  LinkRunStats stats;
};

class FecLink {
 public:
  explicit FecLink(const OpticalLink& link) : link_(&link) {}

  /// Encodes, transmits and decodes one payload.
  [[nodiscard]] FecTransferResult transfer(const std::vector<std::uint8_t>& payload,
                                           util::RngStream& rng) const;

  /// Coding rate: information bits per transmitted bit (0.5 for (8,4)
  /// before the CRC byte overhead).
  [[nodiscard]] static double code_rate() { return 0.5; }

 private:
  const OpticalLink* link_;
};

}  // namespace oci::link
