// Counter-based RNG for the link window kernel's hot path.
//
// RngStream wraps std::mt19937_64 and std:: distributions: excellent
// statistically, but each draw walks a 2.5 KB state and the library
// transforms are not bit-stable across standard library
// implementations. The window kernel instead derives one tiny
// counter-based stream PER WINDOW ("lane") from a single 64-bit root
// (one raw draw of the caller's stream per driver call):
//
//   root --lane_key(i)--> key_i --splitmix64 walk--> u64, u64, ...
//
// Two properties the engine's tests pin rest on this shape:
//
//  * Decomposability: lane i's draw sequence depends only on
//    (root, i), never on the batch it was simulated in -- a W-window
//    batch is draw-for-draw identical to W one-window batches, and a
//    repaired lane (re-simulated with a corrected dead-time carry)
//    replays its stream from the key alone. A window's TDC conversion
//    continues its lane past the window's draws, so a whole symbol is
//    one lane.
//  * Bit stability: the state is one u64 per lane, the update is
//    add/xor/shift/multiply, and the uniform double uses only
//    exactly-rounded operations, so a lane's draws are the same bits
//    under every compiler and instruction set.
//
// Distribution transforms (exponential, normal, envelopes) do NOT live
// here: they are implemented once in the link window kernel from
// portable exactly-rounded primitives. This header is only keys,
// counters and uniforms.
#pragma once

#include <cstdint>
#include <string_view>

#include "oci/util/random.hpp"

namespace oci::util {

/// One lane's stream: a splitmix64 walk from a fixed key, counting
/// draws. The uniform maps the top 52 bits to (0, 1) -- never 0, never
/// 1 -- with only exactly-rounded arithmetic (see batch_uniform01).
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t key) : state_(key) {}

  [[nodiscard]] std::uint64_t next_u64() {
    ++draws_;
    return splitmix64(state_);
  }

  /// Uniform double in (0, 1), exclusive on both ends.
  [[nodiscard]] double uniform() { return batch_uniform01(next_u64()); }

  [[nodiscard]] std::uint64_t draws() const { return draws_; }
  [[nodiscard]] std::uint64_t state() const { return state_; }

  /// The (0,1) mapping: (hi52 + 0.5) * 2^-52. hi52 < 2^52 so the
  /// int->double conversion is exact, the +0.5 is exact (ulp at
  /// [2^51, 2^52) is 0.5) and the scale is a power of two -- every
  /// step exactly rounded on every ISA.
  [[nodiscard]] static double batch_uniform01(std::uint64_t x) {
    return (static_cast<double>(x >> 12) + 0.5) * 0x1p-52;
  }

 private:
  std::uint64_t state_;
  std::uint64_t draws_ = 0;
};

/// Root of a batch: hands out decorrelated per-lane keys. Stateless
/// after construction, so it is safe to share by const reference and
/// to rebuild for lane repairs.
class BatchRngStream {
 public:
  explicit BatchRngStream(std::uint64_t root) : root_(root) {}
  BatchRngStream(std::uint64_t root, std::string_view label)
      : root_(derive_seed(root, label)) {}

  /// Well-mixed key of lane `lane`; pure in (root, lane).
  [[nodiscard]] std::uint64_t lane_key(std::uint64_t lane) const {
    // Golden-ratio stride into splitmix's own increment space, then two
    // mixing rounds so adjacent lanes share no low-bit structure.
    std::uint64_t s = root_ + (lane + 1) * kSplitmixGamma;
    (void)splitmix64(s);
    return splitmix64(s);
  }

  /// Lane `lane`'s stream from its `offset`-th draw on, with draws()
  /// counting from there: a TDC conversion continues the lane its
  /// window ran on past that window's draws. O(1): each splitmix64
  /// step adds a constant to the state.
  [[nodiscard]] CounterRng lane(std::uint64_t lane, std::uint64_t offset = 0) const {
    return CounterRng(lane_key(lane) + offset * kSplitmixGamma);
  }

  [[nodiscard]] std::uint64_t root() const { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace oci::util
