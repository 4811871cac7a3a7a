// Pulse-position modulation: K bits encoded as the position of one
// optical pulse among 2^K time slots inside the TDC's TOA window. This
// is the paper's chosen scheme: the SPAD's long detection cycle caps the
// pulse *rate*, but each pulse can carry many bits in its *timing*.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "oci/util/math.hpp"
#include "oci/util/units.hpp"

namespace oci::modulation {

using util::Time;

/// Slot labelling. Gray labels make adjacent-slot timing errors cost a
/// single bit flip instead of up to K.
enum class SlotLabeling { kBinary, kGray };

struct PpmConfig {
  unsigned bits_per_symbol = 4;                 ///< K
  Time slot_width = Time::nanoseconds(1.0);     ///< one TOA slot
  SlotLabeling labeling = SlotLabeling::kGray;
};

class PpmCodec {
 public:
  explicit PpmCodec(const PpmConfig& config);

  [[nodiscard]] const PpmConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t slot_count() const { return slots_; }

  /// Symbol value (must be < 2^K) -> slot index.
  [[nodiscard]] std::uint64_t slot_for_symbol(std::uint64_t symbol) const;
  /// Slot index -> symbol value.
  [[nodiscard]] std::uint64_t symbol_for_slot(std::uint64_t slot) const {
    if (slot >= slots_) throw std::invalid_argument("PpmCodec: slot out of range");
    return config_.labeling == SlotLabeling::kGray ? util::to_gray(slot) : slot;
  }

  /// Symbol -> pulse emission time relative to symbol start: the centre
  /// of the symbol's slot, which leaves the most margin against jitter
  /// both ways.
  [[nodiscard]] Time encode(std::uint64_t symbol) const;
  /// TOA relative to symbol start -> decoded symbol. TOAs outside the
  /// span clamp to the nearest slot. Inline with the two steps it
  /// chains: the receiver decodes every symbol through it
  /// (link::OpticalLink::decide).
  [[nodiscard]] std::uint64_t decode(Time toa) const {
    return symbol_for_slot(slot_for_toa(toa));
  }
  /// Slot index a TOA lands in (clamped).
  [[nodiscard]] std::uint64_t slot_for_toa(Time toa) const {
    double s = toa.seconds() / config_.slot_width.seconds();
    if (s < 0.0) s = 0.0;
    auto slot = static_cast<std::uint64_t>(s);
    if (slot >= slots_) slot = slots_ - 1;
    return slot;
  }

  /// Hamming distance between the bit patterns of two symbols; used to
  /// convert slot-error statistics into bit-error statistics.
  [[nodiscard]] static unsigned hamming(std::uint64_t a, std::uint64_t b);

  /// Packs a byte string MSB-first into K-bit symbols (zero-padded tail).
  [[nodiscard]] std::vector<std::uint64_t> pack_bytes(const std::vector<std::uint8_t>& bytes) const;
  /// Inverse of pack_bytes; `byte_count` trims the zero padding.
  [[nodiscard]] std::vector<std::uint8_t> unpack_bytes(const std::vector<std::uint64_t>& symbols,
                                                       std::size_t byte_count) const;

 private:
  PpmConfig config_;
  std::uint64_t slots_;
};

}  // namespace oci::modulation
