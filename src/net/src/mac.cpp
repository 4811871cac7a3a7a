#include "oci/net/mac.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oci::net {

TdmaMac::TdmaMac(bus::TdmaSchedule schedule) : schedule_(std::move(schedule)) {}

const SlotOutcome& TdmaMac::arbitrate_slot(std::uint64_t slot,
                                           const std::vector<bool>& backlogged,
                                           util::RngStream& /*rng*/) {
  SlotOutcome& out = fresh_outcome(backlogged.size());
  const std::size_t owner = schedule_.owner(slot);
  if (owner < backlogged.size() && backlogged[owner]) out.clean.push_back(owner);
  return out;
}

TokenMac::TokenMac(std::size_t participants, unsigned pass_slots)
    : participants_(participants), pass_slots_(pass_slots) {
  if (participants_ == 0) throw std::invalid_argument("TokenMac: need >= 1 participant");
}

const SlotOutcome& TokenMac::arbitrate_slot(std::uint64_t /*slot*/,
                                            const std::vector<bool>& backlogged,
                                            util::RngStream& /*rng*/) {
  if (backlogged.size() != participants_) {
    throw std::invalid_argument("TokenMac: backlog vector size mismatch");
  }
  SlotOutcome& out = fresh_outcome(participants_);
  if (passing_ > 0) {
    // A token exchange is in flight; the medium is dead this slot.
    --passing_;
    return out;
  }
  // Work-conserving scan: advance the token to the next backlogged die.
  for (std::size_t step = 0; step < participants_; ++step) {
    const std::size_t candidate = (holder_ + step) % participants_;
    if (backlogged[candidate]) {
      if (candidate != holder_) {
        holder_ = candidate;
        if (pass_slots_ > 0) {
          // The pass costs dead slots BEFORE the new holder may send.
          passing_ = pass_slots_ - 1;  // this slot is the first dead one
          return out;
        }
      }
      out.clean.push_back(candidate);
      return out;
    }
  }
  return out;  // everyone idle; token stays put
}

SubsetMac::SubsetMac(std::unique_ptr<MacPolicy> inner, std::vector<std::size_t> members,
                     std::size_t dies)
    : inner_(std::move(inner)), members_(std::move(members)), dies_(dies) {
  if (!inner_) throw std::invalid_argument("SubsetMac: inner policy required");
  if (members_.empty()) throw std::invalid_argument("SubsetMac: need >= 1 live member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] >= dies_ || (i > 0 && members_[i] <= members_[i - 1])) {
      throw std::invalid_argument(
          "SubsetMac: members must be strictly increasing die indices");
    }
  }
  inner_backlogged_.resize(members_.size());
}

const SlotOutcome& SubsetMac::arbitrate_slot(std::uint64_t slot,
                                             const std::vector<bool>& backlogged,
                                             util::RngStream& rng) {
  if (backlogged.size() != dies_) {
    throw std::invalid_argument("SubsetMac: backlog vector size mismatch");
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    inner_backlogged_[i] = backlogged[members_[i]];
  }
  const SlotOutcome& inner = inner_->arbitrate_slot(slot, inner_backlogged_, rng);
  SlotOutcome& out = fresh_outcome(members_.size());
  for (const std::size_t g : inner.clean) out.clean.push_back(members_[g]);
  for (const std::size_t g : inner.collided) out.collided.push_back(members_[g]);
  return out;
}

AlohaMac::AlohaMac(double attempt_probability) : p_(attempt_probability) {
  if (p_ <= 0.0 || p_ > 1.0) {
    throw std::invalid_argument("AlohaMac: attempt probability must be in (0,1]");
  }
}

const SlotOutcome& AlohaMac::arbitrate_slot(std::uint64_t /*slot*/,
                                            const std::vector<bool>& backlogged,
                                            util::RngStream& rng) {
  // One Bernoulli attempt per backlogged die, in die order; a lone
  // attempt goes through, two or more collide.
  SlotOutcome& out = fresh_outcome(backlogged.size());
  for (std::size_t i = 0; i < backlogged.size(); ++i) {
    if (backlogged[i] && rng.bernoulli(p_)) out.collided.push_back(i);
  }
  if (out.collided.size() == 1) {
    out.clean.push_back(out.collided.front());
    out.collided.clear();
  }
  return out;
}

CacMac::CacMac(cac::Allocation allocation)
    : allocation_(std::move(allocation)), dies_(allocation_.slots.size()) {
  if (dies_ == 0) throw std::invalid_argument("CacMac: allocation covers no dies");
  if (allocation_.wavelength.size() != dies_) {
    throw std::invalid_argument("CacMac: allocation wavelength/slots size mismatch");
  }
  if (allocation_.frame == 0) throw std::invalid_argument("CacMac: zero frame length");
  slot_owners_.resize(static_cast<std::size_t>(allocation_.frame));
  for (std::size_t die = 0; die < dies_; ++die) {
    for (const std::uint32_t s : allocation_.slots[die]) {
      if (s >= allocation_.frame) {
        throw std::invalid_argument("CacMac: codeword slot outside the frame");
      }
      slot_owners_[s].push_back(
          Owner{allocation_.wavelength[die], static_cast<std::uint32_t>(die)});
    }
  }
  // Wavelength-major, die-minor order makes each wavelength's owners a
  // contiguous group and fixes the deterministic grant order.
  for (auto& owners : slot_owners_) {
    std::sort(owners.begin(), owners.end(), [](const Owner& a, const Owner& b) {
      return a.wavelength != b.wavelength ? a.wavelength < b.wavelength : a.die < b.die;
    });
  }
}

const SlotOutcome& CacMac::arbitrate_slot(std::uint64_t slot,
                                          const std::vector<bool>& backlogged,
                                          util::RngStream& /*rng*/) {
  if (backlogged.size() != dies_) {
    throw std::invalid_argument("CacMac: backlog vector size mismatch");
  }
  SlotOutcome& out = fresh_outcome(dies_);
  const auto& owners = slot_owners_[static_cast<std::size_t>(slot % allocation_.frame)];
  std::size_t begin = 0;
  while (begin < owners.size()) {
    std::size_t end = begin;
    while (end < owners.size() && owners[end].wavelength == owners[begin].wavelength) ++end;
    std::size_t active = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (backlogged[owners[i].die]) ++active;
    }
    if (active > 0) {
      SlotGrant& dst = active == 1 ? out.clean : out.collided;
      for (std::size_t i = begin; i < end; ++i) {
        if (backlogged[owners[i].die]) dst.push_back(owners[i].die);
      }
    }
    begin = end;
  }
  return out;
}

}  // namespace oci::net
