// Packet-level abstractions for the optical stack network. The paper's
// Figure 1 scenario -- "hundreds of thinned stacked dies" on one
// optical bus -- is a *network*, not a point-to-point link; this module
// models it at queueing granularity: packets occupy transfer slots on
// the shared broadcast medium, a MAC policy arbitrates the slots, and
// the link substrate supplies the per-transfer delivery probability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oci/util/random.hpp"
#include "oci/util/units.hpp"

namespace oci::net {

using util::Time;

/// Destination value meaning "all dies" (the optical bus broadcasts
/// physically; this marks packets addressed to everyone).
inline constexpr std::size_t kBroadcast = static_cast<std::size_t>(-1);

struct Packet {
  std::size_t src = 0;
  std::size_t dst = 0;            ///< die index or kBroadcast
  std::uint64_t id = 0;           ///< unique per simulation
  std::size_t payload_bytes = 8;
  std::uint64_t enqueued_slot = 0;
  unsigned attempts = 0;          ///< transmissions so far (ARQ)
};

/// Per-die open-loop Poisson traffic source.
struct TrafficSpec {
  /// Mean packets per slot injected at this die (offered load share).
  double packets_per_slot = 0.0;
  std::size_t payload_bytes = 8;
  /// Destination die; kBroadcast for broadcast traffic. Ignored when
  /// uniform_destinations is set.
  std::size_t destination = 0;
  /// Pick a uniformly random OTHER die per packet instead of
  /// `destination`.
  bool uniform_destinations = false;
};

/// Latency/throughput digest of one simulation run.
struct LatencySummary {
  std::size_t samples = 0;
  double mean_slots = 0.0;
  double p50_slots = 0.0;
  double p95_slots = 0.0;
  double p99_slots = 0.0;
  double max_slots = 0.0;
};

/// Quantile digest of raw per-packet latencies (in slots). Quantiles
/// use the nearest-rank method, found by selection on the owned copy.
[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> latencies);

}  // namespace oci::net
