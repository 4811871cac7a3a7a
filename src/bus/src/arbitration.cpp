#include "oci/bus/arbitration.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace oci::bus {

TdmaSchedule::TdmaSchedule(std::vector<std::uint32_t> weights) : weights_(std::move(weights)) {
  if (weights_.empty()) throw std::invalid_argument("TdmaSchedule: no participants");
  cumulative_.resize(weights_.size() + 1, 0);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (weights_[i] == 0) throw std::invalid_argument("TdmaSchedule: zero weight");
    cumulative_[i + 1] = cumulative_[i] + weights_[i];
  }
  cycle_ = cumulative_.back();
}

TdmaSchedule TdmaSchedule::equal(std::size_t participants) {
  return TdmaSchedule(std::vector<std::uint32_t>(participants, 1));
}

std::size_t TdmaSchedule::owner(std::uint64_t slot) const {
  const std::uint64_t pos = slot % cycle_;
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), pos);
  return static_cast<std::size_t>(std::distance(cumulative_.begin(), it)) - 1;
}

std::uint64_t TdmaSchedule::next_slot(std::size_t i, std::uint64_t from) const {
  if (i >= weights_.size()) throw std::out_of_range("TdmaSchedule: participant");
  const std::uint64_t base = (from / cycle_) * cycle_;
  const std::uint64_t begin = cumulative_[i];
  const std::uint64_t end = cumulative_[i + 1];
  // Candidate inside the current cycle.
  const std::uint64_t pos = from - base;
  if (pos < end) return base + std::max(pos, begin);
  return base + cycle_ + begin;
}

}  // namespace oci::bus
