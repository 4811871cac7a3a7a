// Analytic symbol/bit error model for the PPM-over-SPAD link. The paper
// requires "potential errors due to jitter and afterpulse probability
// below a certain bound"; this model quantifies each contribution so a
// designer can check the bound without Monte Carlo:
//
//  * miss      -- the pulse triggers no avalanche (photon budget)
//  * capture   -- a dark count / afterpulse / background event fires
//                 BEFORE the signal slot and steals the conversion
//  * jitter    -- detector + TDC timing noise pushes the TOA into a
//                 neighbouring slot
//
// The model assumes Gray slot labels: a jitter error costs one bit of K.
#pragma once

#include "oci/util/units.hpp"

namespace oci::link {

using util::Frequency;
using util::Time;

struct ErrorBudgetInputs {
  double pulse_detection_probability = 0.99;  ///< from the link budget
  Frequency noise_rate = Frequency::hertz(500.0);  ///< DCR + background at detector
  double afterpulse_probability = 0.01;
  Time toa_window = Time::nanoseconds(33.0);  ///< 2^C clock periods
  Time slot_width = Time::nanoseconds(1.0);
  /// Total sigma of the TOA estimate: SPAD jitter, LED pulse spread and
  /// TDC quantisation combined (RSS).
  Time timing_sigma = Time::picoseconds(120.0);
  unsigned bits_per_symbol = 5;
};

struct ErrorBudget {
  double p_miss = 0.0;     ///< no detection in the window
  double p_capture = 0.0;  ///< noise event earlier in the window wins
  double p_jitter = 0.0;   ///< TOA spills into an adjacent slot
  double symbol_error_rate = 0.0;
  double bit_error_rate = 0.0;
};

/// Combines the independent error mechanisms; the symbol errs if any
/// mechanism fires (union bound with independence factorisation).
[[nodiscard]] ErrorBudget compute_error_budget(const ErrorBudgetInputs& in);

/// Gaussian tail helper Q(x) = P(Z > x).
[[nodiscard]] double q_function(double x);

/// Root-sum-square combination of independent timing noises.
[[nodiscard]] Time rss_sigma(Time a, Time b, Time c = Time::zero());

}  // namespace oci::link
