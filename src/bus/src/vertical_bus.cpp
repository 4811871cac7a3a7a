#include "oci/bus/vertical_bus.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "oci/link/link_engine.hpp"
#include "oci/photonics/led.hpp"
#include "oci/spad/spad.hpp"

namespace oci::bus {

double BusBroadcastResult::worst_symbol_error_rate() const {
  double worst = 0.0;
  for (const auto& stats : per_die) worst = std::max(worst, stats.symbol_error_rate());
  return worst;
}

VerticalBus::VerticalBus(const VerticalBusConfig& config)
    : config_(config), stack_(photonics::DieStack::uniform(config.dies, config.die)) {
  if (config_.master >= config_.dies) {
    throw std::invalid_argument("VerticalBus: master die out of range");
  }
  if (config_.dies < 2) throw std::invalid_argument("VerticalBus: need >= 2 dies");
}

std::vector<DieLinkReport> VerticalBus::downstream_reports() const {
  const photonics::MicroLed led(config_.led);
  const spad::Spad detector(config_.spad, config_.led.wavelength);
  std::vector<DieLinkReport> reports;
  reports.reserve(config_.dies);
  for (std::size_t die = 0; die < config_.dies; ++die) {
    DieLinkReport r;
    r.die = die;
    if (die == config_.master) {
      r.transmittance = 1.0;
      r.detection_probability = 1.0;
      r.serviceable = true;  // the master trivially hears itself
    } else {
      const link::LinkBudget b =
          link::compute_budget(led, stack_, config_.master, die, detector);
      r.transmittance = b.channel_transmittance;
      r.detection_probability = b.pulse_detection_probability;
      r.serviceable = b.pulse_detection_probability >= config_.min_detection_probability;
    }
    reports.push_back(r);
  }
  return reports;
}

std::size_t VerticalBus::serviceable_dies() const {
  std::size_t n = 0;
  for (const DieLinkReport& r : downstream_reports()) {
    if (r.die != config_.master && r.serviceable) ++n;
  }
  return n;
}

BitRate VerticalBus::broadcast_goodput_per_die() const {
  return link::throughput(config_.design);
}

BitRate VerticalBus::aggregate_broadcast_goodput() const {
  return BitRate::bits_per_second(broadcast_goodput_per_die().bits_per_second() *
                                  static_cast<double>(serviceable_dies()));
}

BitRate VerticalBus::upstream_rate_per_die() const {
  const std::size_t talkers = config_.dies - 1;
  if (talkers == 0) return BitRate::bits_per_second(0.0);
  return BitRate::bits_per_second(link::throughput(config_.design).bits_per_second() /
                                  static_cast<double>(talkers));
}

link::OpticalLinkConfig VerticalBus::receiver_link_config(std::size_t tx_die,
                                                          std::size_t rx_die) const {
  if (tx_die >= config_.dies || rx_die >= config_.dies) {
    throw std::invalid_argument("VerticalBus: die index out of range");
  }
  link::OpticalLinkConfig c;
  c.design = config_.design;
  c.bits_per_symbol = config_.bits_per_symbol;
  c.led = config_.led;
  c.spad = config_.spad;
  c.channel_transmittance =
      stack_.transmittance(tx_die, rx_die, config_.led.wavelength);
  c.calibrate = config_.mc_calibrate;
  c.calibration_samples = config_.mc_calibration_samples;
  return c;
}

BusReceivers VerticalBus::build_receivers(util::RngStream& process_rng) const {
  BusReceivers receivers;
  receivers.reserve(config_.dies - 1);
  for (std::size_t die = 0; die < config_.dies; ++die) {
    if (die == config_.master) continue;
    receivers.push_back(std::make_unique<link::OpticalLink>(
        receiver_link_config(config_.master, die), process_rng));
  }
  return receivers;
}

BusBroadcastResult VerticalBus::monte_carlo_broadcast(const BusReceivers& receivers,
                                                      std::uint64_t symbols,
                                                      util::RngStream& rng) const {
  if (receivers.empty()) throw std::invalid_argument("VerticalBus: no receivers");
  // One pulse train: a broadcast is identical at every die, only the
  // optical budget and detector noise differ.
  const auto max_symbol =
      static_cast<std::int64_t>((std::uint64_t{1} << receivers.front()->bits_per_symbol()) - 1);
  std::vector<std::uint64_t> train(symbols);
  for (std::uint64_t& s : train) s = static_cast<std::uint64_t>(rng.uniform_int(0, max_symbol));

  BusBroadcastResult out;
  out.per_die.reserve(receivers.size());
  for (const auto& receiver : receivers) {
    util::RngStream rx = rng.fork("bus-die-rx");
    link::LinkRunStats stats = link::LinkEngine(*receiver).run_sequence(
        train, rx, [](std::size_t, const link::LinkEngine::SymbolOutcome&) {});
    stats.rng_draws += rx.draws();
    out.per_die.push_back(stats);
  }
  return out;
}

link::LinkRunStats VerticalBus::monte_carlo_upstream_contention(
    std::span<const std::size_t> talkers, std::uint64_t symbols,
    util::RngStream& rng) const {
  if (talkers.empty()) {
    throw std::invalid_argument("VerticalBus: contention needs at least one talker");
  }
  for (std::size_t i = 0; i < talkers.size(); ++i) {
    if (talkers[i] >= config_.dies || talkers[i] == config_.master) {
      throw std::invalid_argument("VerticalBus: talkers must be non-master dies");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (talkers[j] == talkers[i]) {
        throw std::invalid_argument("VerticalBus: talkers must be distinct dies");
      }
    }
  }

  // The slot owner's chain to the master is the victim link; every
  // colliding talker leaks its full pulse through its own stack
  // transmittance as an aggressor source.
  util::RngStream process = rng.fork("contention-link");
  const link::OpticalLink link(receiver_link_config(talkers[0], config_.master), process);
  const photonics::MicroLed& led = link.led();  // uniform LED template per die

  std::vector<double> aggressor_mean;
  aggressor_mean.reserve(talkers.size() - 1);
  for (std::size_t k = 1; k < talkers.size(); ++k) {
    aggressor_mean.push_back(
        led.photons_per_pulse() *
        stack_.transmittance(talkers[k], config_.master, config_.led.wavelength));
  }

  util::RngStream tx = rng.fork("contention-tx");
  const std::int64_t max_symbol = (std::int64_t{1} << link.bits_per_symbol()) - 1;
  const std::size_t k = aggressor_mean.size();
  std::vector<std::uint64_t> sent(symbols);
  std::vector<double> starts(symbols * k);
  for (std::uint64_t s = 0; s < symbols; ++s) {
    sent[s] = static_cast<std::uint64_t>(tx.uniform_int(0, max_symbol));
    for (std::size_t a = 0; a < k; ++a) {
      const auto colliding = static_cast<std::uint64_t>(tx.uniform_int(0, max_symbol));
      starts[s * k + a] = link.ppm().encode(colliding).seconds();
    }
  }
  return link::LinkEngine(link).run_sequence(
      sent, tx, [](std::size_t, const link::LinkEngine::SymbolOutcome&) {},
      {.aggressor_means = aggressor_mean, .aggressor_starts_s = starts});
}

Energy VerticalBus::broadcast_energy_per_delivered_bit() const {
  const photonics::MicroLed led(config_.led);
  const std::size_t receivers = serviceable_dies();
  if (receivers == 0) return Energy::zero();
  const double bits = link::bits_per_sample(config_.design);
  // One pulse carries `bits` bits to every serviceable receiver.
  return Energy::joules(led.electrical_pulse_energy().joules() /
                        (bits * static_cast<double>(receivers)));
}

}  // namespace oci::bus
