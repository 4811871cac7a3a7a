#include "oci/modulation/ook.hpp"

#include <stdexcept>

namespace oci::modulation {

BitRate ook_dead_time_limited_rate(Time dead_time) {
  if (dead_time <= Time::zero()) {
    throw std::invalid_argument("ook_dead_time_limited_rate: dead time must be positive");
  }
  return BitRate::bits_per_second(1.0 / dead_time.seconds());
}

}  // namespace oci::modulation
