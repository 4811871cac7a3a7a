// Vernier TDC: an alternative fine interpolator. Two delay lines with
// slightly different element delays (slow feeds the hit, fast feeds the
// latch clock) give an effective resolution of (d_slow - d_fast) --
// finer than any single gate delay -- at the cost of a conversion time
// of N_stages x d_slow and one flip-flop per stage. Included as the
// classic design alternative to the paper's single tapped line: the
// paper's Figure 4 trade-off extends directly by substituting delta
// with the Vernier residual.
#pragma once

#include <cstddef>

#include "oci/util/random.hpp"
#include "oci/util/units.hpp"

namespace oci::tdc {

using util::RngStream;
using util::Time;

struct VernierParams {
  std::size_t stages = 64;
  Time slow_delay = Time::picoseconds(60.0);  ///< hit-path element delay
  Time fast_delay = Time::picoseconds(52.0);  ///< clock-path element delay
  double mismatch_sigma = 0.03;  ///< relative sigma on each element of both lines
};

class VernierTdc {
 public:
  VernierTdc(const VernierParams& params, RngStream& process_rng);

  [[nodiscard]] const VernierParams& params() const { return params_; }
  /// Nominal resolution: d_slow - d_fast.
  [[nodiscard]] Time resolution() const;
  /// Maximum measurable interval: stages x resolution.
  [[nodiscard]] Time range() const;
  /// Time for a conversion to propagate through all stages.
  [[nodiscard]] Time conversion_time() const;

  /// Converts an interval (hit lead over clock) to a stage count: the
  /// stage at which the fast (clock) edge catches the slow (hit) edge.
  /// Saturates at `stages`.
  [[nodiscard]] std::size_t convert(Time interval) const;

 private:
  VernierParams params_;
  std::vector<double> residual_s_;  ///< per-stage (slow_i - fast_i), cumulative
};

}  // namespace oci::tdc
