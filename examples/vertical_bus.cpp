// Vertical optical bus example -- the paper's Figure 1 (right) scenario:
// a stack of 8 thinned dies served by one through-chip optical channel.
// The master broadcasts a frame to every die; the dies answer upstream
// in TDMA order. Prints per-die link budgets and the realised traffic.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "oci/bus/arbitration.hpp"
#include "oci/bus/vertical_bus.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/util/table.hpp"

int main(int argc, char** argv) {
  using namespace oci;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  bus::VerticalBusConfig cfg;
  cfg.dies = 8;
  cfg.master = 0;
  cfg.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  cfg.led.peak_power = util::Power::microwatts(200.0);
  cfg.led.wavelength = util::Wavelength::nanometres(850.0);  // NIR for reach
  const bus::VerticalBus vbus(cfg);

  std::cout << "== downstream link budget (master on die 0) ==\n";
  util::Table t({"die", "transmittance", "P(detect pulse)", "serviceable"});
  for (const auto& r : vbus.downstream_reports()) {
    t.new_row()
        .add_cell(static_cast<std::uint64_t>(r.die))
        .add_sci(r.transmittance)
        .add_cell(r.detection_probability, 4)
        .add_cell(r.serviceable ? "yes" : "no");
  }
  t.print(std::cout);

  std::cout << "\nserviceable dies        : " << vbus.serviceable_dies()
            << "\nbroadcast goodput/die   : "
            << util::si_format(vbus.broadcast_goodput_per_die().bits_per_second(), "bps", 2)
            << "\naggregate broadcast     : "
            << util::si_format(vbus.aggregate_broadcast_goodput().bits_per_second(), "bps",
                               2)
            << "\nupstream share per die  : "
            << util::si_format(vbus.upstream_rate_per_die().bits_per_second(), "bps", 2)
            << "\nbroadcast energy/bit    : "
            << util::si_format(vbus.broadcast_energy_per_delivered_bit().joules(), "J", 2)
            << "\n";

  // --- frame exchange over the stack, in time order ---
  std::cout << "\n== broadcast + TDMA upstream exchange ==\n";
  const photonics::MicroLed led(cfg.led);
  const spad::Spad det(cfg.spad, cfg.led.wavelength);

  // One link instance per (master -> die) channel.
  std::vector<std::unique_ptr<link::OpticalLink>> down;
  util::RngStream process(seed, "bus-process");
  for (std::size_t die = 1; die < cfg.dies; ++die) {
    link::OpticalLinkConfig lc;
    lc.design = cfg.design;
    lc.bits_per_symbol = 5;
    lc.led = cfg.led;
    lc.spad = cfg.spad;
    lc.channel_transmittance =
        link::compute_budget(led, vbus.stack(), 0, die, det).channel_transmittance;
    down.push_back(std::make_unique<link::OpticalLink>(lc, process));
  }

  modulation::Frame beacon;
  const std::string msg = "BUS-EPOCH-0";
  beacon.payload.assign(msg.begin(), msg.end());

  // At 1 us the master broadcasts the beacon to every die in turn.
  util::RngStream channel(seed, "bus-channel");
  int delivered = 0;
  for (const auto& l : down) {
    if (l->transmit_frame(beacon, channel).frame) ++delivered;
  }

  // From 5 us the dies answer upstream, each in its equal-share TDMA
  // slot of 64 symbols; slot die - 1 keeps the loop in time order.
  const bus::TdmaSchedule tdma = bus::TdmaSchedule::equal(cfg.dies - 1);
  int up_total = 0;
  util::Time last = util::Time::microseconds(1.0);
  for (std::size_t die = 1; die < cfg.dies; ++die) {
    const std::uint64_t slot = tdma.next_slot(die - 1, 0);
    last = util::Time::microseconds(5.0) +
           down[die - 1]->symbol_period() * static_cast<double>(slot * 64);
    modulation::Frame reply;
    const std::string r = "ACK-die-" + std::to_string(die);
    reply.payload.assign(r.begin(), r.end());
    if (down[die - 1]->transmit_frame(reply, channel).frame) ++up_total;
  }

  std::cout << "broadcast frames delivered : " << delivered << " / " << down.size()
            << "\nupstream ACKs received     : " << up_total << " / " << down.size()
            << "\nsimulated time             : " << util::si_format(last.seconds(), "s", 2)
            << " (" << 2 * down.size() << " transfers)\n";
  return 0;
}
