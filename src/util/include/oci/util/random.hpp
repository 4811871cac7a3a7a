// Deterministic random-number streams. Every stochastic component in the
// framework takes an explicit RngStream so that experiments are exactly
// reproducible and independent components draw from decorrelated streams.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "oci/util/units.hpp"

namespace oci::util {

/// Derives a well-mixed 64-bit seed from a root seed and a stream label,
/// so that RngStream("spad") and RngStream("tdc") built from the same root
/// are statistically independent.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, std::string_view label);

/// splitmix64's state increment per step (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ull;

/// splitmix64 step; used both for seed derivation and as a cheap mixer.
/// Inline: the window kernel's counter draws and lane keys call it
/// once per draw.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += kSplitmixGamma;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A deterministic random stream with convenience draws for the
/// distributions the simulator needs. Thin wrapper over std::mt19937_64.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}
  RngStream(std::uint64_t root, std::string_view label) : engine_(derive_seed(root, label)) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal draw scaled to (mean, sigma). Sigma 0 returns
  /// `mean` and still consumes one draw.
  [[nodiscard]] double normal(double mean, double sigma);
  /// Exponential with the given mean (NOT rate).
  [[nodiscard]] double exponential_mean(double mean);
  /// Poisson draw with the given mean.
  [[nodiscard]] std::int64_t poisson(double mean);
  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p);
  /// Binomial draw: successes in `n` trials of probability `p`.
  [[nodiscard]] std::uint64_t binomial(std::uint64_t n, double p);

  /// Uniform time in [0, range).
  [[nodiscard]] Time uniform_time(Time range);
  /// Normally distributed time; useful for jitter.
  [[nodiscard]] Time normal_time(Time mean, Time sigma);
  /// Exponentially distributed waiting time with the given mean.
  [[nodiscard]] Time exponential_time(Time mean);

  /// Spawn an independent child stream labelled off this stream's state.
  [[nodiscard]] RngStream fork(std::string_view label);
  /// Advances this stream exactly as fork() does (one raw engine draw)
  /// without seeding the child: keeps a stream layout whose fork the
  /// caller never uses.
  void skip_fork() { (void)engine_(); }

  /// Access the raw engine for std distributions not wrapped here.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

  /// Distribution draws served by this stream so far (degenerate draws
  /// that never touch the engine -- poisson(0), bernoulli(0/1),
  /// binomial(0, p), binomial(n, 0/1) -- do not count). The benches
  /// report draws/op as a compiler-independent hot-path cost metric in
  /// BENCH_*.json.
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t draws_ = 0;
};

}  // namespace oci::util
