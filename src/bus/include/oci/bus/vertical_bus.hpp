// The paper's headline system (Figure 1, right): a fully optical
// through-chip bus servicing a stack of thinned dies. One optical
// channel is a broadcast medium -- a pulse launched by any die is seen
// by every SPAD along the stack -- so downstream traffic is a natural
// broadcast and upstream traffic is TDMA-arbitrated.
//
// Two layers coexist here: the analytic link-budget queries
// (downstream_reports, serviceable_dies, throughput/energy), and the
// photon-level Monte-Carlo paths (monte_carlo_broadcast,
// monte_carlo_upstream_contention) that run every receiver window on
// the multi-source link::LinkEngine -- colliding talkers become
// aggressor SourcePulses merged into the master's window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/link/budget.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/photonics/die_stack.hpp"
#include "oci/util/units.hpp"

namespace oci::bus {

using util::BitRate;
using util::Energy;
using util::Time;

struct VerticalBusConfig {
  photonics::DieSpec die;                 ///< uniform die spec for the stack
  std::size_t dies = 8;
  std::size_t master = 0;                 ///< die hosting the bus master
  link::TdcDesign design;                 ///< per-receiver TDC design
  photonics::MicroLedParams led;
  spad::SpadParams spad;
  /// Minimum per-pulse detection probability for a die to be considered
  /// serviceable by the bus.
  double min_detection_probability = 0.95;

  /// Photon-level Monte-Carlo receiver options (the analytic queries
  /// above ignore these). bits_per_symbol = 0 means the TDC's full
  /// log2(N)+C resolution; calibration is off by default because each
  /// MC call constructs its receiver links afresh.
  unsigned bits_per_symbol = 0;
  bool mc_calibrate = false;
  std::uint64_t mc_calibration_samples = 20000;
};

struct DieLinkReport {
  std::size_t die = 0;
  double transmittance = 0.0;
  double detection_probability = 0.0;
  bool serviceable = false;
};

/// Per-die outcome of a photon-level broadcast run.
struct BusBroadcastResult {
  std::vector<std::size_t> dies;  ///< receiver die indices (non-master)
  std::vector<link::LinkRunStats> per_die;

  [[nodiscard]] double worst_symbol_error_rate() const;
};

class VerticalBus {
 public:
  explicit VerticalBus(const VerticalBusConfig& config);

  [[nodiscard]] const VerticalBusConfig& config() const { return config_; }
  [[nodiscard]] const photonics::DieStack& stack() const { return stack_; }

  /// Link budget from the master to every die.
  [[nodiscard]] std::vector<DieLinkReport> downstream_reports() const;

  /// Dies (other than the master) the broadcast reliably reaches.
  [[nodiscard]] std::size_t serviceable_dies() const;

  /// Broadcast throughput: every serviceable die receives the full
  /// symbol rate, so aggregate delivered bits scale with fan-out.
  [[nodiscard]] BitRate broadcast_goodput_per_die() const;
  [[nodiscard]] BitRate aggregate_broadcast_goodput() const;

  /// Upstream: the single shared channel is TDMA-divided among the
  /// non-master dies; per-die share of the channel throughput.
  [[nodiscard]] BitRate upstream_rate_per_die() const;

  /// Transmit energy for one pulse reaching all serviceable dies,
  /// amortised per delivered bit (broadcast advantage: one pulse, many
  /// receivers).
  [[nodiscard]] Energy broadcast_energy_per_delivered_bit() const;

  /// OpticalLinkConfig of the tx_die -> rx_die receiver chain: the bus
  /// template (design, LED, SPAD) with the die stack's transmittance
  /// folded in. Public so oracle tests can rebuild the exact link the
  /// Monte-Carlo paths below simulate.
  [[nodiscard]] link::OpticalLinkConfig receiver_link_config(std::size_t tx_die,
                                                             std::size_t rx_die) const;

  /// Photon-level broadcast: the master streams `symbols` random PPM
  /// symbols and every other die receives the same pulse train through
  /// its own stack transmittance, each on the LinkEngine hot path
  /// (allocation-free per window). Far dies erase more -- the
  /// Monte-Carlo shadow of downstream_reports(). Each die's
  /// `rng_draws` counts its process, symbol-pick and receive stream
  /// draws besides its kernel lanes' (`rng` itself only forks).
  [[nodiscard]] BusBroadcastResult monte_carlo_broadcast(std::uint64_t symbols,
                                                         util::RngStream& rng) const;

  /// Photon-level contended upstream slot: talkers[0] owns the slot,
  /// the remaining talkers collide into it, and the master's receiver
  /// sees the extra pulses as aggressor SourcePulses merged by the
  /// multi-source engine. Returns the master-side counters over
  /// `symbols` windows; collisions surface as noise captures and
  /// symbol errors. Talkers must be distinct non-master dies.
  [[nodiscard]] link::LinkRunStats monte_carlo_upstream_contention(
      std::span<const std::size_t> talkers, std::uint64_t symbols,
      util::RngStream& rng) const;

 private:
  VerticalBusConfig config_;
  photonics::DieStack stack_;
};

}  // namespace oci::bus
