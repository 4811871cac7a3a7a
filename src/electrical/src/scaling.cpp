#include "oci/electrical/scaling.hpp"

#include <stdexcept>

namespace oci::electrical {

const std::vector<TechnologyNode>& technology_ladder() {
  // FO4 tracks ~0.36 ps/nm of drawn feature (20 ps at 250 nm era
  // lore); the delay element is ~2.6 FO4 (buffer + local routing);
  // mismatch sigma grows as devices shrink; pad capacitance shrinks
  // far slower than core capacitance because ESD and bond geometry
  // dominate it.
  static const std::vector<TechnologyNode> ladder = {
      {"250nm", 250.0, Voltage::volts(2.5), Time::picoseconds(90.0),
       Time::picoseconds(234.0), 0.05, Capacitance::picofarads(3.0),
       Capacitance::femtofarads(700.0)},
      {"180nm", 180.0, Voltage::volts(1.8), Time::picoseconds(65.0),
       Time::picoseconds(169.0), 0.055, Capacitance::picofarads(2.6),
       Capacitance::femtofarads(520.0)},
      {"130nm", 130.0, Voltage::volts(1.5), Time::picoseconds(47.0),
       Time::picoseconds(122.0), 0.06, Capacitance::picofarads(2.3),
       Capacitance::femtofarads(380.0)},
      {"90nm", 90.0, Voltage::volts(1.2), Time::picoseconds(32.0),
       Time::picoseconds(83.0), 0.07, Capacitance::picofarads(2.0),
       Capacitance::femtofarads(270.0)},
      {"65nm", 65.0, Voltage::volts(1.1), Time::picoseconds(23.0),
       Time::picoseconds(60.0), 0.08, Capacitance::picofarads(1.8),
       Capacitance::femtofarads(200.0)},
      {"45nm", 45.0, Voltage::volts(1.0), Time::picoseconds(16.0),
       Time::picoseconds(42.0), 0.095, Capacitance::picofarads(1.6),
       Capacitance::femtofarads(150.0)},
      {"32nm", 32.0, Voltage::volts(0.9), Time::picoseconds(11.0),
       Time::picoseconds(29.0), 0.11, Capacitance::picofarads(1.5),
       Capacitance::femtofarads(110.0)},
  };
  return ladder;
}

const TechnologyNode& node_by_name(std::string_view name) {
  for (const TechnologyNode& node : technology_ladder()) {
    if (node.name == name) return node;
  }
  throw std::invalid_argument("node_by_name: unknown technology node");
}

util::Energy switching_energy_at(const TechnologyNode& node, Capacitance load) {
  return util::switching_energy(load, node.supply);
}

}  // namespace oci::electrical
