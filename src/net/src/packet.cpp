#include "oci/net/packet.hpp"

#include <algorithm>

namespace oci::net {

LatencySummary summarize_latencies(std::vector<double> latencies) {
  LatencySummary s;
  s.samples = latencies.size();
  if (latencies.empty()) return s;
  // Latencies are integer slot counts whose sum stays far below 2^53,
  // so the sum is exact in any order.
  double sum = 0.0;
  for (const double v : latencies) sum += v;
  s.mean_slots = sum / static_cast<double>(latencies.size());
  // Nearest-rank quantiles by selection, in increasing rank: each
  // nth_element leaves everything above its rank in the tail, so the
  // next (higher) rank is selected from that tail alone.
  std::size_t tail = 0;  // first index not yet partitioned off
  auto nearest_rank = [&](double quantile) {
    const auto rank = std::min(
        static_cast<std::size_t>(quantile * static_cast<double>(latencies.size())),
        latencies.size() - 1);
    if (rank >= tail) {
      std::nth_element(latencies.begin() + static_cast<std::ptrdiff_t>(tail),
                       latencies.begin() + static_cast<std::ptrdiff_t>(rank), latencies.end());
      tail = rank + 1;
    }
    return latencies[rank];
  };
  s.p50_slots = nearest_rank(0.50);
  s.p95_slots = nearest_rank(0.95);
  s.p99_slots = nearest_rank(0.99);
  s.max_slots = *std::max_element(latencies.begin(), latencies.end());
  return s;
}

}  // namespace oci::net
