// Photon-level per-packet delivery oracle for slot-synchronous network
// simulations (net::StackNetwork): one deliver() call streams the
// packet's PPM symbols through the LinkEngine hot path and reports
// delivery as "every symbol decoded clean" (no symbol error, no
// erasure) -- the plain-framing CRC model folded down to one bool.
//
// This replaces the scalar delivery_probability abstraction with the
// actual photon-level link while keeping million-slot runs tractable:
// a packet costs ~20 engine windows (a few hundred RNG draws) and no
// heap allocation, so the NoC sweep loop stays allocation-free end to
// end. Bind it into StackNetworkConfig::delivery_model:
//
//   link::SymbolDeliveryModel phy(link);
//   cfg.delivery_model = [&](const net::Packet& p, util::RngStream& rng) {
//     return phy.deliver(p.payload_bytes, rng);
//   };
//
// NOT thread-safe: deliver() mutates the cumulative counters and the
// engine's scratch, so this is one model per simulation/thread. Under a
// BatchRunner sweep, construct the model inside the task body (each
// task owns its network AND its phy model), never in shared state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "oci/link/link_engine.hpp"

namespace oci::link {

class SymbolDeliveryModel {
 public:
  /// Packets are sized by modulation::symbols_for_payload (payload
  /// plus its fixed framing overhead). The link must outlive the model
  /// (the engine caches its rate products).
  explicit SymbolDeliveryModel(const OpticalLink& link);

  /// Transfer slots a packet of `payload_bytes` occupies on this link.
  [[nodiscard]] std::uint64_t symbols_for(std::size_t payload_bytes) const;

  /// Transmits one packet's worth of random symbols; true when the
  /// whole packet decoded without error or erasure. Each packet starts
  /// with an armed SPAD (packets are separated by MAC slots, far longer
  /// than the dead time).
  [[nodiscard]] bool deliver(std::size_t payload_bytes, util::RngStream& rng);

  /// Aggregated link counters across every deliver() call so far --
  /// lets a network sweep report photon-level statistics (noise
  /// captures, erasures) alongside packet outcomes.
  [[nodiscard]] const LinkRunStats& cumulative() const { return cumulative_; }

 private:
  const OpticalLink* link_;
  LinkEngine engine_;
  LinkRunStats cumulative_;
};

}  // namespace oci::link
