// Slot-synchronous simulation of N dies sharing one optical bus.
//
// Abstraction level: a SLOT is one packet-transfer opportunity (the
// PPM symbols of one framed packet plus guard); the link substrate is
// folded into a per-transfer delivery probability (from the Monte
// Carlo link or the analytic error budget). This keeps million-slot
// network runs tractable while staying calibrated against the photon-
// level model -- the same layering PhoenixSim-style frameworks use.
//
// Supported mechanics: per-die FIFO queues with finite capacity,
// Poisson arrivals, MAC arbitration (see mac.hpp), collision loss,
// stop-and-wait ARQ with bounded retries, and full latency accounting.
//
// Per-slot work follows the traffic, not the die count. Arrivals are
// drawn by Poisson superposition: one aggregate count from Poisson of
// the summed rates, then one uniform per arrival picks its source in
// proportion to its rate (RateSums: an exact inverse of the running
// sums in expected O(1)), which leaves every die's count an exact,
// independent Poisson of its own rate. Backlog flags are kept on
// enqueue and pop; the rest is the MAC's work and the grants', which
// land in the MAC's reused outcome buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "oci/net/mac.hpp"
#include "oci/net/packet.hpp"
#include "oci/util/random.hpp"
#include "oci/util/samplers.hpp"

namespace oci::net {

struct StackNetworkConfig {
  std::size_t dies = 8;
  /// Per-die traffic sources; size must equal `dies`.
  std::vector<TrafficSpec> traffic;
  /// Probability a non-colliding transfer is delivered intact
  /// (frame CRC passes at the destination). Collisions always fail.
  double delivery_probability = 1.0;
  /// Optional physical-layer hook: when set, it decides each
  /// non-colliding transfer INSTEAD of the Bernoulli
  /// delivery_probability draw -- e.g. bind
  /// link::SymbolDeliveryModel::deliver to couple the slot simulation
  /// to the photon-level LinkEngine. Must be deterministic given the
  /// packet and the RNG stream (the stream is the slot simulation's
  /// own, so coupled runs stay reproducible). Any state the callable
  /// captures belongs to THIS network alone: in a BatchRunner sweep,
  /// build the model inside each task, never share one across tasks
  /// (SymbolDeliveryModel mutates its counters per call).
  std::function<bool(const Packet&, util::RngStream&)> delivery_model;
  /// Max transmissions per packet before it is dropped (>= 1).
  unsigned max_attempts = 4;
  /// Per-die queue capacity; arrivals beyond it are dropped at entry.
  std::size_t queue_capacity = 256;
  /// Fault state: dead_nodes[i] != 0 marks die i dead -- it injects
  /// nothing and receives nothing (a transfer addressed to it fails
  /// deterministically). Empty = all live.
  std::vector<std::uint8_t> dead_nodes;
  /// Row-major dies x dies matrix; broken_links[src*dies+dst] != 0
  /// fails every (src -> dst) transfer deterministically while both
  /// endpoints live. Empty = all paths intact.
  std::vector<std::uint8_t> broken_links;
  /// Graceful-degradation response: uniform traffic draws destinations
  /// among LIVE other dies (routing around the holes). false = keep
  /// drawing over all other dies and pay the deterministic failures.
  /// Fixed-destination traffic to a dead die is dropped at entry when
  /// true (counted as queue_drops: unroutable), retried to death when
  /// false.
  bool reroute_dead_destinations = true;
};

struct DieStats {
  std::uint64_t offered = 0;     ///< packets generated
  std::uint64_t queue_drops = 0; ///< lost to a full queue
  std::uint64_t delivered = 0;
  std::uint64_t retry_drops = 0; ///< lost after max_attempts
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;  ///< transmissions lost to collisions
};

struct NetworkRunResult {
  std::vector<DieStats> per_die;
  std::uint64_t slots = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t collision_slots = 0;
  LatencySummary latency;         ///< enqueue -> delivery, in slots

  [[nodiscard]] std::uint64_t total_offered() const;
  [[nodiscard]] std::uint64_t total_delivered() const;
  /// Delivered packets per slot (the carried load).
  [[nodiscard]] double carried_load() const;
  /// Fraction of offered packets eventually delivered.
  [[nodiscard]] double delivery_ratio() const;
  /// Jain's fairness index over per-die delivered counts.
  [[nodiscard]] double fairness_index() const;
};

/// Running sums of the arrival sources' rates and their exact inverse:
/// upper_bound(x) equals std::upper_bound over the sums for every x,
/// ties included. A guess table of one bucket per sum over
/// [0, total()) holds the upper_bound of each bucket's lower edge; a
/// query starts at its bucket's guess and walks down, then up, with
/// upper_bound's own predicate (sums[k] > x), so it lands on the answer
/// or a step from it unless many sums tie.
class RateSums {
 public:
  RateSums() = default;
  /// `sums` must be non-empty and non-decreasing, with a positive last
  /// entry (the total rate).
  explicit RateSums(std::vector<double> sums);

  [[nodiscard]] double total() const { return sums_.back(); }

  [[nodiscard]] std::size_t upper_bound(double x) const {
    const double b = x * bucket_scale_;
    const std::size_t last = guess_.size() - 1;
    // Clamped before the cast, which only sees [0, last).
    std::size_t k =
        guess_[b > 0.0 ? (b < static_cast<double>(last) ? static_cast<std::size_t>(b) : last)
                       : 0];
    while (k > 0 && sums_[k - 1] > x) --k;
    while (k < sums_.size() && !(sums_[k] > x)) ++k;
    return k;
  }

 private:
  std::vector<double> sums_;
  std::vector<std::uint32_t> guess_;  ///< upper_bound of each bucket's lower edge
  double bucket_scale_ = 0.0;         ///< buckets per unit of rate
};

class StackNetwork {
 public:
  /// The network owns its MAC policy. Throws std::invalid_argument on
  /// inconsistent configuration.
  StackNetwork(const StackNetworkConfig& config, std::unique_ptr<MacPolicy> mac);

  [[nodiscard]] const StackNetworkConfig& config() const { return config_; }
  [[nodiscard]] const MacPolicy& mac() const { return *mac_; }

  /// Runs `slots` arbitration rounds and returns the digest. Repeated
  /// calls continue from the current queue state (warm restart), which
  /// lets callers discard a warm-up window.
  [[nodiscard]] NetworkRunResult run(std::uint64_t slots, util::RngStream& rng);

  /// Packets currently waiting across all queues.
  [[nodiscard]] std::size_t backlog() const;

  /// True when die i is configured dead.
  [[nodiscard]] bool node_dead(std::size_t die) const {
    return !config_.dead_nodes.empty() && config_.dead_nodes[die] != 0;
  }
  /// True when the (src -> dst) path is configured broken.
  [[nodiscard]] bool link_broken(std::size_t src, std::size_t dst) const {
    return !config_.broken_links.empty() &&
           config_.broken_links[src * config_.dies + dst] != 0;
  }

 private:
  void inject_arrivals(std::uint64_t slot, util::RngStream& rng,
                       std::vector<DieStats>& stats);
  /// One arrival at `die`: the capacity check, the destination draw
  /// and dead-destination shedding, then the enqueue.
  void enqueue_arrival(std::size_t die, std::uint64_t slot, util::RngStream& rng,
                       DieStats& stats);
  /// Drops `die`'s head-of-line packet and keeps backlogged_ in step.
  void pop_head(std::size_t die);

  StackNetworkConfig config_;
  std::unique_ptr<MacPolicy> mac_;
  std::vector<std::deque<Packet>> queues_;
  /// backlogged_[i] == !queues_[i].empty(), kept on enqueue and pop so
  /// no slot rebuilds it; like the queues it persists across run().
  std::vector<bool> backlogged_;
  /// Uniform-destination candidates in increasing order: every die on
  /// the clean (or reroute-off) path, only the live ones with rerouting
  /// armed. A source draws among the list minus itself, found through
  /// eligible_position_ -- on the clean path the index mapping and draw
  /// count of the historical `pick >= die ? pick+1 : pick` fold.
  std::vector<std::size_t> eligible_;
  std::vector<std::size_t> eligible_position_;  ///< die -> index in eligible_
  /// Arrival sources (live dies with a positive rate), their running
  /// rate sums, and the sampler of the slot's aggregate arrival count.
  std::vector<std::size_t> sources_;
  RateSums cumulative_rate_;
  util::PoissonSampler aggregate_arrivals_;
  std::uint64_t next_packet_id_ = 0;
  std::uint64_t slot_cursor_ = 0;  ///< absolute slot index across run() calls
};

}  // namespace oci::net
