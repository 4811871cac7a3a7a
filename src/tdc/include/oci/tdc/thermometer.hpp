// Thermometer-to-binary conversion with bubble suppression. The paper's
// "fine controller" (Figure 2-B) converts the latched thermometer code
// to binary "so as to avoid metastability"; bubbles (isolated 0s below
// the transition or 1s above it) arise when the latch races tap
// transitions. The controller modelled here is a 3-tap majority filter
// followed by a ones count, which heals a bubble instead of dropping
// taps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "oci/tdc/delay_line.hpp"
#include "oci/util/batch_rng.hpp"

namespace oci::tdc {

/// Decodes a (possibly bubbled) thermometer code into a tap count: the
/// 3-tap majority filter (ends replicated), then a ones count. A chain
/// shorter than 3 taps reads its ones count.
[[nodiscard]] std::size_t decode_thermometer(std::span<const std::uint8_t> code);

/// The three latch regimes of a chain latched `interval` after the hit:
/// taps [0, ones) read a settled 1, the next `racing` taps switched
/// within the metastability window of the edge and resolve randomly,
/// and the rest read a settled 0.
struct LatchRegimes {
  std::size_t ones = 0;
  std::size_t racing = 0;
};

/// Finds the latch regimes by walking from the line's bucket guess
/// (DelayLine::settled_ones_guess) with DelayLine::sample()'s per-tap
/// comparisons, exactly for the given metastability half-window.
[[nodiscard]] LatchRegimes latch_regimes(const DelayLine& line, Time interval,
                                         Time metastability_window);

/// Decodes a latched chain of `taps` taps, `ones` settled 1s followed
/// by the racing taps' resolved bits (one 0/1 byte each, in tap order),
/// exactly as decode_thermometer decodes the materialised code.
[[nodiscard]] std::size_t decode_latched(std::size_t taps, std::size_t ones,
                                         std::span<const std::uint8_t> racing_bits);

/// Fused DelayLine::sample + decode_thermometer: latch_regimes, one coin
/// per racing tap, decode_latched. No thermometer code is materialised.
/// Consumes RNG draws in the same order as sample() and returns the
/// identical decoded tap count (a property test pins this), at a few
/// tap comparisons instead of N per conversion -- the TDC conversion
/// hot path. When no tap races it draws nothing and returns the
/// settled-1 count, which the majority filter reads from a clean code.
[[nodiscard]] std::size_t sample_and_decode(const DelayLine& line, Time interval,
                                            RngStream& rng);
/// The same conversion with each racing tap's coin from the top bit of
/// one counter draw (the link engine's lane streams).
[[nodiscard]] std::size_t sample_and_decode(const DelayLine& line, Time interval,
                                            util::CounterRng& coins);

}  // namespace oci::tdc
