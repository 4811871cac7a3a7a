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
// aggressor pulses merged into the master's window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// log2(N)+C resolution; calibration is off by default, so building
  /// the receivers costs no training.
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

/// Receiver chains of the photon-level broadcast: one link (master ->
/// die) per non-master die, in die order.
using BusReceivers = std::vector<std::unique_ptr<link::OpticalLink>>;

/// Per-die outcome of a photon-level broadcast run, in the receivers'
/// order.
struct BusBroadcastResult {
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

  /// The broadcast's receiver chains, built from `process_rng` (process
  /// variation and, with mc_calibrate, calibration) once per device.
  [[nodiscard]] BusReceivers build_receivers(util::RngStream& process_rng) const;

  /// Photon-level broadcast on `receivers` (from build_receivers): the
  /// master streams `symbols` random PPM symbols, drawn from `rng`, and
  /// every receiver gets the same pulse train through its own stack
  /// transmittance, one LinkEngine run per die on its own fork of
  /// `rng`. Far dies erase more -- the Monte-Carlo shadow of
  /// downstream_reports(). Each die's `rng_draws` counts its receive
  /// stream's draws and its kernel lanes'; the symbols' draws are in
  /// rng.draws(). Throws std::invalid_argument on an empty receiver set.
  [[nodiscard]] BusBroadcastResult monte_carlo_broadcast(const BusReceivers& receivers,
                                                         std::uint64_t symbols,
                                                         util::RngStream& rng) const;

  /// Photon-level contended upstream slot: talkers[0] owns the slot,
  /// the remaining talkers collide into it, and the master's receiver
  /// sees the extra pulses as aggressor pulses merged by the
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
