// On-off keying baseline. With a dead-time-limited single-photon
// detector, OOK must stretch the bit period to at least the detection
// cycle (a '1' pulse blinds the SPAD for the whole dead time), so its
// throughput is capped at 1/dead_time x 1 bit. PPM beats it by packing
// log2(N)+C bits into each detection cycle -- the paper's core argument
// for choosing PPM. The baseline is that analytic ceiling.
#pragma once

#include "oci/util/units.hpp"

namespace oci::modulation {

using util::BitRate;
using util::Time;

/// Throughput ceiling of OOK on a detector with the given dead time
/// (the bit period cannot be shorter than the dead time).
[[nodiscard]] BitRate ook_dead_time_limited_rate(Time dead_time);

}  // namespace oci::modulation
