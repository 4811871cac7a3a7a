// Medium access for the shared optical bus. The optical channel is a
// broadcast medium (every SPAD on the stack sees every pulse), so
// upstream transmitters must be arbitrated; a static TDMA schedule is
// the natural fit for the fixed-latency, clock-distributed stack the
// paper proposes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oci/util/units.hpp"

namespace oci::bus {

using util::Time;

/// Weighted round-robin TDMA: die i owns `weights[i]` consecutive symbol
/// slots per cycle.
class TdmaSchedule {
 public:
  explicit TdmaSchedule(std::vector<std::uint32_t> weights);

  /// Equal-share schedule for n participants.
  [[nodiscard]] static TdmaSchedule equal(std::size_t participants);

  [[nodiscard]] std::size_t participants() const { return weights_.size(); }
  [[nodiscard]] std::uint64_t cycle_slots() const { return cycle_; }
  [[nodiscard]] std::uint32_t weight(std::size_t i) const { return weights_.at(i); }

  /// Which participant owns the given absolute slot index.
  [[nodiscard]] std::size_t owner(std::uint64_t slot) const;

  /// First absolute slot >= `from` owned by participant i.
  [[nodiscard]] std::uint64_t next_slot(std::size_t i, std::uint64_t from) const;

 private:
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint64_t> cumulative_;  ///< prefix sums of weights
  std::uint64_t cycle_ = 0;
};

}  // namespace oci::bus
