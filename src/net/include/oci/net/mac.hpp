// Medium-access policies for the shared optical bus. Every SPAD on the
// stack sees every pulse, so at most one die may transmit per slot; the
// three classic disciplines trade latency, utilisation, and complexity:
//
//   * TDMA  -- static weighted schedule (the paper's natural fit: the
//     stack is clock-distributed, so slot boundaries are free);
//   * token -- work-conserving round-robin: the slot goes to the next
//     backlogged die, skipping idle ones at a configurable pass cost;
//   * slotted ALOHA -- uncoordinated random access; two simultaneous
//     pulses in one TOA window garble both frames (collision);
//   * CAC   -- conflict-avoiding-code schedules (cac.hpp): per-die
//     codewords over a prime frame and a decentralised wavelength/slot
//     allocation, collision-bounded (λ <= 1 per pair per frame) with
//     no token ring and no global TDMA owner table.
//
// CAC allocations may span several WDM wavelengths, so one slot can
// carry several clean transfers at once (one per wavelength); every
// policy reports its decision as a structured SlotOutcome so the
// network never has to guess which transmitters collided. The outcome
// lives in a buffer the policy owns and reuses, so arbitration
// allocates nothing once the buffer has room for every die.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/net/cac.hpp"
#include "oci/util/random.hpp"

namespace oci::net {

/// Die indices granted (or lost) in one slot.
using SlotGrant = std::vector<std::size_t>;

/// Structured arbitration result: `clean` dies transmit alone on their
/// wavelength (each gets an independent delivery decision), `collided`
/// dies shared a wavelength with another transmitter and lose the slot.
/// Single-channel policies produce at most one clean die per slot;
/// multi-wavelength CAC allocations can carry several.
struct SlotOutcome {
  SlotGrant clean;
  SlotGrant collided;
};

/// Abstract MAC policy. `backlogged[i]` says whether die i has a
/// packet ready; arbitrate_slot() returns who transmits in this slot,
/// split into clean and collided transmitters (both empty = idle slot).
/// The returned outcome is the policy's own buffer: it stays valid
/// until the policy's next arbitrate_slot() call, which overwrites it.
class MacPolicy {
 public:
  virtual ~MacPolicy() = default;
  [[nodiscard]] virtual const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                          const std::vector<bool>& backlogged,
                                                          util::RngStream& rng) = 0;
  /// Human-readable policy name for reports.
  [[nodiscard]] virtual const char* name() const = 0;

 protected:
  /// The outcome buffer, emptied, with room for `dies` grants in each
  /// list: only a policy's first call (or a larger die count) allocates.
  SlotOutcome& fresh_outcome(std::size_t dies) {
    outcome_.clean.clear();
    outcome_.collided.clear();
    outcome_.clean.reserve(dies);
    outcome_.collided.reserve(dies);
    return outcome_;
  }

 private:
  SlotOutcome outcome_;
};

/// Static weighted TDMA on top of bus::TdmaSchedule. Non-work-
/// conserving: an idle owner's slot is wasted.
class TdmaMac final : public MacPolicy {
 public:
  explicit TdmaMac(bus::TdmaSchedule schedule);
  [[nodiscard]] const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                  const std::vector<bool>& backlogged,
                                                  util::RngStream& rng) override;
  [[nodiscard]] const char* name() const override { return "tdma"; }

 private:
  bus::TdmaSchedule schedule_;
};

/// Round-robin token passing: the token holder transmits if backlogged,
/// else the token advances. Each advance costs `pass_slots` dead slots
/// (the optical token exchange); 0 models an idealised scheduler.
class TokenMac final : public MacPolicy {
 public:
  TokenMac(std::size_t participants, unsigned pass_slots = 0);
  [[nodiscard]] const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                  const std::vector<bool>& backlogged,
                                                  util::RngStream& rng) override;
  [[nodiscard]] const char* name() const override { return "token"; }

 private:
  std::size_t participants_;
  unsigned pass_slots_;
  std::size_t holder_ = 0;
  unsigned passing_ = 0;  ///< dead slots left in the current pass
};

/// MAC re-arbitration over the SURVIVORS of a partially failed stack:
/// wraps any inner policy built for `members.size()` participants and
/// remaps between the full die index space and the compacted live one.
/// With a TDMA inner policy this is slot reclamation (the dead dies'
/// slots are redistributed over the survivors); with a token inner
/// policy the ring simply bypasses dead dies; with a CacMac inner
/// policy it is CODEWORD reclamation -- the allocation is built for the
/// live population only, so the dead dies' codewords (and their share
/// of the wavelength/slot grid) return to the pool and the frame
/// shrinks to the survivors' optimal prime length. Dead dies are never
/// granted -- their backlog flags are dropped at the boundary.
class SubsetMac final : public MacPolicy {
 public:
  /// `members` lists the LIVE die indices (strictly increasing, each <
  /// `dies`); `inner` must be built for members.size() participants.
  SubsetMac(std::unique_ptr<MacPolicy> inner, std::vector<std::size_t> members,
            std::size_t dies);
  /// Delegates to the inner policy (preserving multi-wavelength clean
  /// grants) and remaps both lists back to the full die space, into
  /// this policy's own buffer.
  [[nodiscard]] const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                  const std::vector<bool>& backlogged,
                                                  util::RngStream& rng) override;
  [[nodiscard]] const char* name() const override { return "subset"; }
  [[nodiscard]] const MacPolicy& inner() const { return *inner_; }
  [[nodiscard]] const std::vector<std::size_t>& members() const { return members_; }

 private:
  std::unique_ptr<MacPolicy> inner_;
  std::vector<std::size_t> members_;
  std::size_t dies_;
  std::vector<bool> inner_backlogged_;
};

/// Slotted ALOHA: every backlogged die independently transmits with
/// probability `attempt_probability`. Simultaneous transmissions
/// collide (the receivers' SPADs fire on whichever photon lands first;
/// both frames fail CRC).
class AlohaMac final : public MacPolicy {
 public:
  explicit AlohaMac(double attempt_probability);
  [[nodiscard]] const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                  const std::vector<bool>& backlogged,
                                                  util::RngStream& rng) override;
  [[nodiscard]] const char* name() const override { return "aloha"; }
  [[nodiscard]] double attempt_probability() const { return p_; }

 private:
  double p_;
};

/// Conflict-avoiding-code MAC: every die transmits in the slots of its
/// phased codeword (cac::Allocation), with no token ring and no global
/// owner table. Same-wavelength transmitters sharing a slot collide;
/// the CAC difference-set property bounds that to at most one slot per
/// frame for any pair, and the allocator's refinement drives the
/// residual overlap toward zero -- under full backlog the schedule is
/// collision-free wherever the packing succeeded. Distinct wavelengths
/// never interfere, so one slot can carry up to `wavelengths()` clean
/// transfers (the WDM parallelism centralized single-channel MACs
/// cannot reach).
///
/// Arbitration is O(owners of this frame slot), NOT O(dies): the
/// constructor inverts the allocation into per-slot owner lists once,
/// so thousand-die stacks pay per-slot work proportional to the
/// (constant) codeword mass per slot.
class CacMac final : public MacPolicy {
 public:
  /// `allocation` must cover exactly the dies the network arbitrates
  /// (allocation.slots.size() participants).
  explicit CacMac(cac::Allocation allocation);
  [[nodiscard]] const SlotOutcome& arbitrate_slot(std::uint64_t slot,
                                                  const std::vector<bool>& backlogged,
                                                  util::RngStream& rng) override;
  [[nodiscard]] const char* name() const override { return "cac"; }
  [[nodiscard]] std::uint64_t frame() const { return allocation_.frame; }
  [[nodiscard]] std::size_t wavelengths() const { return allocation_.wavelengths; }
  [[nodiscard]] const cac::Allocation& allocation() const { return allocation_; }

 private:
  struct Owner {
    std::uint32_t wavelength;
    std::uint32_t die;
  };

  cac::Allocation allocation_;
  std::size_t dies_;
  /// Frame slot -> owners, sorted by (wavelength, die). Wavelength
  /// groups are contiguous, so arbitration resolves each group in one
  /// linear pass with no per-slot scratch state.
  std::vector<std::vector<Owner>> slot_owners_;
};

}  // namespace oci::net
