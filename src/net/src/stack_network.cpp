#include "oci/net/stack_network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace oci::net {

std::uint64_t NetworkRunResult::total_offered() const {
  std::uint64_t sum = 0;
  for (const DieStats& d : per_die) sum += d.offered;
  return sum;
}

std::uint64_t NetworkRunResult::total_delivered() const {
  std::uint64_t sum = 0;
  for (const DieStats& d : per_die) sum += d.delivered;
  return sum;
}

double NetworkRunResult::carried_load() const {
  return slots > 0 ? static_cast<double>(total_delivered()) / static_cast<double>(slots)
                   : 0.0;
}

double NetworkRunResult::delivery_ratio() const {
  const std::uint64_t offered = total_offered();
  return offered > 0 ? static_cast<double>(total_delivered()) / static_cast<double>(offered)
                     : 1.0;
}

double NetworkRunResult::fairness_index() const {
  // Jain's index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair.
  double sum = 0.0, sum_sq = 0.0;
  std::size_t n = 0;
  for (const DieStats& d : per_die) {
    if (d.offered == 0) continue;  // silent dies don't count against fairness
    const auto x = static_cast<double>(d.delivered);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n == 0 || sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

RateSums::RateSums(std::vector<double> sums)
    : sums_(std::move(sums)), guess_(sums_.size()) {
  bucket_scale_ = static_cast<double>(sums_.size()) / sums_.back();
  // Bucket edges rise with the bucket, so the answers do too.
  std::size_t k = 0;
  for (std::size_t b = 0; b < guess_.size(); ++b) {
    const double edge = static_cast<double>(b) / bucket_scale_;
    while (k < sums_.size() && !(sums_[k] > edge)) ++k;
    guess_[b] = static_cast<std::uint32_t>(k);
  }
}

StackNetwork::StackNetwork(const StackNetworkConfig& config, std::unique_ptr<MacPolicy> mac)
    : config_(config), mac_(std::move(mac)), queues_(config.dies) {
  if (config_.dies == 0) throw std::invalid_argument("StackNetwork: need >= 1 die");
  if (!mac_) throw std::invalid_argument("StackNetwork: MAC policy required");
  if (config_.traffic.size() != config_.dies) {
    throw std::invalid_argument("StackNetwork: one TrafficSpec per die required");
  }
  if (config_.delivery_probability < 0.0 || config_.delivery_probability > 1.0) {
    throw std::invalid_argument("StackNetwork: delivery probability must be in [0,1]");
  }
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("StackNetwork: max_attempts must be >= 1");
  }
  for (const TrafficSpec& t : config_.traffic) {
    if (t.packets_per_slot < 0.0) {
      throw std::invalid_argument("StackNetwork: negative arrival rate");
    }
    if (!t.uniform_destinations && t.destination != kBroadcast &&
        t.destination >= config_.dies) {
      throw std::invalid_argument("StackNetwork: destination out of range");
    }
  }
  if (!config_.dead_nodes.empty() && config_.dead_nodes.size() != config_.dies) {
    throw std::invalid_argument("StackNetwork: dead_nodes must be empty or one flag per die");
  }
  if (!config_.broken_links.empty() &&
      config_.broken_links.size() != config_.dies * config_.dies) {
    throw std::invalid_argument(
        "StackNetwork: broken_links must be empty or a dies x dies matrix");
  }
  // Uniform destinations draw among the eligible dies (see header):
  // every die on the clean path, the live ones when routing around
  // dead dies. A dead die sources nothing, so every source is listed.
  const bool exclude_dead = config_.reroute_dead_destinations && !config_.dead_nodes.empty();
  eligible_position_.assign(config_.dies, 0);
  for (std::size_t die = 0; die < config_.dies; ++die) {
    if (exclude_dead && node_dead(die)) continue;
    eligible_position_[die] = eligible_.size();
    eligible_.push_back(die);
  }
  backlogged_.assign(config_.dies, false);
  // Arrival sources: the live dies with a positive rate. A dead die's
  // transmitter is gone, so it sources nothing.
  double total_rate = 0.0;
  std::vector<double> sums;
  for (std::size_t die = 0; die < config_.dies; ++die) {
    const double rate = config_.traffic[die].packets_per_slot;
    if (rate <= 0.0 || node_dead(die)) continue;
    total_rate += rate;
    sources_.push_back(die);
    sums.push_back(total_rate);
  }
  if (total_rate > 0.0) {
    cumulative_rate_ = RateSums(std::move(sums));
    aggregate_arrivals_ = util::PoissonSampler(total_rate);
  }
}

std::size_t StackNetwork::backlog() const {
  std::size_t sum = 0;
  for (const auto& q : queues_) sum += q.size();
  return sum;
}

void StackNetwork::inject_arrivals(std::uint64_t slot, util::RngStream& rng,
                                   std::vector<DieStats>& stats) {
  // Poisson superposition: one aggregate count per slot, then each
  // arrival picks its source with probability rate / total. Per-die
  // counts are then exactly independent Poisson(rate).
  const std::int64_t arrivals = aggregate_arrivals_.sample(rng);
  for (std::int64_t a = 0; a < arrivals; ++a) {
    const std::size_t pick =
        cumulative_rate_.upper_bound(rng.uniform() * cumulative_rate_.total());
    // u * total can round up to total itself: clamp to the last source.
    const std::size_t die = sources_[std::min(pick, sources_.size() - 1)];
    enqueue_arrival(die, slot, rng, stats[die]);
  }
}

void StackNetwork::enqueue_arrival(std::size_t die, std::uint64_t slot, util::RngStream& rng,
                                   DieStats& stats) {
  const TrafficSpec& spec = config_.traffic[die];
  ++stats.offered;
  if (queues_[die].size() >= config_.queue_capacity) {
    ++stats.queue_drops;
    return;
  }
  Packet p;
  p.src = die;
  if (spec.uniform_destinations && config_.dies > 1) {
    // Uniform over the eligible OTHER dies: pick k of the list minus
    // the source, stepping over the source's own entry. On the clean
    // path this is the historical `pick >= die ? pick+1 : pick` fold.
    const std::size_t others = eligible_.size() - 1;
    if (others == 0) {
      // Every possible destination is dead: unroutable at entry.
      ++stats.queue_drops;
      return;
    }
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(others) - 1));
    p.dst = eligible_[k >= eligible_position_[die] ? k + 1 : k];
  } else {
    if (spec.destination != kBroadcast && config_.reroute_dead_destinations &&
        node_dead(spec.destination)) {
      // Fixed-destination traffic to a dead die: the source's flow
      // control knows the endpoint is gone, so the packet is shed at
      // entry instead of burning max_attempts slots on the bus.
      ++stats.queue_drops;
      return;
    }
    p.dst = spec.destination;
  }
  p.id = next_packet_id_++;
  p.payload_bytes = spec.payload_bytes;
  p.enqueued_slot = slot;
  queues_[die].push_back(p);
  backlogged_[die] = true;
}

void StackNetwork::pop_head(std::size_t die) {
  auto& q = queues_[die];
  q.pop_front();
  if (q.empty()) backlogged_[die] = false;
}

NetworkRunResult StackNetwork::run(std::uint64_t slots, util::RngStream& rng) {
  NetworkRunResult result;
  result.per_die.resize(config_.dies);
  result.slots = slots;
  std::vector<double> latencies;

  for (std::uint64_t s = 0; s < slots; ++s) {
    const std::uint64_t slot = slot_cursor_++;
    inject_arrivals(slot, rng, result.per_die);

    // Structured arbitration: single-channel policies yield at most one
    // clean die; a multi-wavelength CacMac can land several clean
    // transfers in one slot, resolved in the policy's deterministic
    // grant order. All per-slot work below is proportional to the
    // grant sizes, never to the die count.
    const SlotOutcome& outcome = mac_->arbitrate_slot(slot, backlogged_, rng);

    if (outcome.clean.empty() && outcome.collided.empty()) {
      ++result.idle_slots;
      continue;
    }
    if (!outcome.collided.empty()) {
      // Collision: every participating frame is garbled; each counts a
      // transmission attempt and may exhaust its retry budget.
      ++result.collision_slots;
      for (const std::size_t die : outcome.collided) {
        auto& q = queues_[die];
        if (q.empty()) continue;  // defensive: policy granted an idle die
        Packet& head = q.front();
        ++result.per_die[die].transmissions;
        ++result.per_die[die].collisions;
        if (++head.attempts >= config_.max_attempts) {
          ++result.per_die[die].retry_drops;
          pop_head(die);
        }
      }
    }

    bool any_transfer = !outcome.collided.empty();
    for (const std::size_t die : outcome.clean) {
      auto& q = queues_[die];
      if (q.empty()) continue;  // defensive: policy granted an idle die
      any_transfer = true;
      Packet& head = q.front();
      ++result.per_die[die].transmissions;
      // A unicast transfer to a dead die or across a broken (src -> dst)
      // path fails deterministically -- the pulse is launched (the slot
      // and the attempt are spent) but nothing can decode it, so no
      // physical-layer delivery draw is consumed. Broadcasts keep the
      // normal draw: the surviving receivers still decode the frame.
      const bool unreachable =
          head.dst != kBroadcast && (node_dead(head.dst) || link_broken(die, head.dst));
      const bool delivered =
          !unreachable && (config_.delivery_model
                               ? config_.delivery_model(head, rng)
                               : rng.bernoulli(config_.delivery_probability));
      if (delivered) {
        ++result.per_die[die].delivered;
        latencies.push_back(static_cast<double>(slot - head.enqueued_slot + 1));
        pop_head(die);
      } else if (++head.attempts >= config_.max_attempts) {
        ++result.per_die[die].retry_drops;
        pop_head(die);
      }
    }
    if (!any_transfer) ++result.idle_slots;
  }

  result.latency = summarize_latencies(std::move(latencies));
  return result;
}

}  // namespace oci::net
