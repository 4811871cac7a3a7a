// Zero-allocation Monte-Carlo symbol engine for the optical link.
//
// The reference pipeline (OpticalLink::transmit_symbol_reference)
// materialises every photon of a pulse, Bernoulli-thins each one by the
// SPAD's PDP and heap-merges the survivors -- for a bright micro-LED
// pulse that is thousands of pow()/Bernoulli draws and several vector
// allocations per symbol. The engine draws avalanche CANDIDATES
// directly instead (thinned-Poisson hazard streams, see kernels.cpp):
// a typical bright window costs 4 RNG draws and no heap allocation.
//
// One driver. run_symbols / run_sequence / measure draw one root from
// the caller's stream per call and run window j of the call as lane j
// of the (root, kWindowLanes) family, in kernel batches of up to
// kEngineBatch lanes. A symbol is one lane: its window, then the TDC
// conversion of its first avalanche, whose racing-tap coins continue
// the lane's counter stream, then the link's slot decision
// (OpticalLink::decide). Per-window inputs (WindowInputs) scale the
// launched pulse, merge aggressor pulses (WDM leakage, neighbour-channel
// crosstalk, colliding bus talkers), sample under a rare-event proposal
// or make the windows independent; the default is the plain window.
// Dead-time carry across consecutive windows is speculated flat and
// repaired by replaying the rare lane whose phantom first fire lands in
// the true blind interval. A lane's result depends only on (engine
// config, inputs, stream root, lane index) -- never on the batch size
// or the thread count.
//
// engine_batch_test pins the lane bits, and that a batch with per-lane
// inputs splits into one-lane batches; statistical regression tests pin
// the engine against the reference pipeline for the isolated,
// interference, WDM and bus-contention paths.
//
// Concurrency: the engine owns mutable scratch (the driver's staging),
// so no two calls may run concurrently on ONE engine instance. Build
// one engine per thread (cheap; every in-repo call site already does).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "oci/link/engine_types.hpp"
#include "oci/link/kernels.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/util/batch_rng.hpp"

namespace oci::link {

class LinkEngine {
 public:
  /// Cheap to construct (copies a handful of cached rate products, no
  /// heap): build one per measurement run, after the link is fully
  /// configured. Rebuild after set_temperature()/recalibrate() -- the
  /// engine caches the DCR-derived noise rate.
  explicit LinkEngine(const OpticalLink& link);

  /// Per-symbol outcome handed to run_symbols/run_sequence reducers.
  struct SymbolOutcome {
    std::uint64_t sent = 0;
    std::uint64_t decoded = 0;
    bool erased = false;         ///< no avalanche in the TOA window
    bool noise_capture = false;  ///< the first avalanche was not the signal's
    double log_weight = 0.0;     ///< the window's log likelihood-ratio (WindowInputs::rare)
  };

  /// Lanes per batch of the batched drivers. Sized so the staged
  /// windows stay L1/L2-resident between kernel and decode passes.
  static constexpr std::size_t kEngineBatch = 256;

  /// Batched window physics: simulates one symbol window per lane of
  /// `windows` (inputs: pulse_start_s / dead_in_s; see WindowResult)
  /// with the engine's own sources. Lane i draws from the counter
  /// stream keyed by `lanes.lane_key(first_lane + i)` -- results are a
  /// pure function of (engine config, stream root, lane index), never
  /// of the batch geometry. Allocation-free; the kernel keeps every
  /// lane's state on the stack and does not touch `scratch`.
  void simulate_windows(std::span<WindowResult> windows,
                        const util::BatchRngStream& lanes, EngineBatchScratch& scratch,
                        std::uint64_t first_lane = 0) const;

  /// Streams `count` random symbols back-to-back and hands each outcome
  /// to `reduce(index, outcome)` -- the BatchRunner-friendly driver:
  /// sweeps accumulate statistics without materialising per-symbol
  /// vectors. Runs on the batched window path: one raw root is drawn
  /// from `rng`, then symbols, window physics and TDC coins come from
  /// counter streams, so the whole run is a pure function of (engine
  /// config, root, inputs). Symbol j reads entry j of `in`'s per-window
  /// spans.
  /// Returns the aggregated counters.
  template <typename Reducer>
  LinkRunStats run_symbols(std::uint64_t count, util::RngStream& rng, Reducer&& reduce,
                           const WindowInputs& in = {}) const {
    check_inputs(count, in);
    LinkRunStats stats;
    const std::uint64_t root = rng.engine()();
    const util::BatchRngStream lanes(root, kWindowLanes);
    util::CounterRng symbol_rng(util::BatchRngStream(root, "engine-symbols").lane_key(0));
    // PPM symbol counts are powers of two, so masking is exact.
    const std::uint64_t mask = (std::uint64_t{1} << bits_per_symbol_) - 1;
    // Warm the scratch BEFORE staging symbols: run_window_batch reserves
    // full batch capacity, which would reallocate the symbol staging the
    // span below points into.
    batch_scratch_.reserve(kEngineBatch);
    double carry_s = 0.0;
    std::uint64_t done = 0;
    while (done < count) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kEngineBatch, count - done));
      std::vector<std::uint64_t>& symbols = batch_scratch_.symbols_;
      symbols.resize(n);
      for (std::size_t j = 0; j < n; ++j) symbols[j] = symbol_rng.next_u64() & mask;
      run_window_batch(symbols, done, lanes, carry_s, stats, in);
      for (std::size_t j = 0; j < n; ++j) reduce(done + j, outcome(j, symbols[j]));
      done += n;
    }
    stats.rng_draws += symbol_rng.draws();
    return stats;
  }

  /// Same driver over a caller-provided symbol sequence.
  template <typename Reducer>
  LinkRunStats run_sequence(std::span<const std::uint64_t> symbols, util::RngStream& rng,
                            Reducer&& reduce, const WindowInputs& in = {}) const {
    check_inputs(symbols.size(), in);
    LinkRunStats stats;
    const util::BatchRngStream lanes(rng.engine()(), kWindowLanes);
    double carry_s = 0.0;
    std::size_t done = 0;
    while (done < symbols.size()) {
      const std::size_t n = std::min<std::size_t>(kEngineBatch, symbols.size() - done);
      run_window_batch(symbols.subspan(done, n), done, lanes, carry_s, stats, in);
      for (std::size_t j = 0; j < n; ++j) reduce(done + j, outcome(j, symbols[done + j]));
      done += n;
    }
    return stats;
  }

  /// The kernel constants every lane of this engine runs with.
  [[nodiscard]] const kernels::BatchParams& kernel_params() const { return params_; }

  /// Random-symbol error-rate measurement (run_symbols, no reducer).
  [[nodiscard]] LinkRunStats measure(std::uint64_t count, util::RngStream& rng,
                                     const WindowInputs& in = {}) const;

  /// Label of the lane family every window derives its key from: window
  /// j of a driver call is lane j of (one root drawn from the caller's
  /// stream, kWindowLanes), and so is its conversion's coins.
  static constexpr std::string_view kWindowLanes = "engine-windows";

 private:
  /// Throws std::invalid_argument unless every per-window span of `in`
  /// is empty or covers `count` windows (aggressor starts: K entries, or
  /// K per window).
  static void check_inputs(std::uint64_t count, const WindowInputs& in);

  /// TDC conversion + PPM decision + error counting for the first
  /// avalanche observed at window-local `toa_s`; `coins` resolves the
  /// racing taps.
  std::uint64_t decode_first_avalanche(std::uint64_t symbol, double toa_s,
                                       LinkRunStats& stats, util::CounterRng& coins) const;

  /// One batch of the batched drivers: simulates `symbols` as
  /// consecutive windows (lane indices first_lane.., which also index
  /// `in`'s per-window spans), repairs the speculative dead-time carry,
  /// accounts stats, and stages each lane's window and decoded symbol
  /// in the scratch. `carry_s` is the window-local blind carry into the
  /// first lane, updated to the carry into the batch after this one
  /// (unused for independent windows). Each conversion draws its coins
  /// from its own lane, past the window's draws.
  void run_window_batch(std::span<const std::uint64_t> symbols, std::uint64_t first_lane,
                        const util::BatchRngStream& lanes, double& carry_s,
                        LinkRunStats& stats, const WindowInputs& in) const;

  /// The staged outcome of lane j of the last batch, sent `sent`.
  [[nodiscard]] SymbolOutcome outcome(std::size_t j, std::uint64_t sent) const {
    const WindowResult& w = batch_scratch_.windows_[j];
    return {sent, batch_scratch_.decoded_[j], !w.fired, w.fired && !w.first_is_signal,
            w.log_weight};
  }

  const OpticalLink* link_;
  /// Kernel constants (envelope pre-resolved), built once.
  kernels::BatchParams params_;
  /// Victim PDP alone: thins the aggressors' optical means.
  double pdp_ = 0.0;
  util::Time symbol_period_;
  util::Energy tx_pulse_energy_;
  util::Energy rx_energy_per_conversion_;
  unsigned bits_per_symbol_ = 0;
  /// Batched-driver working memory (see the concurrency note above).
  mutable EngineBatchScratch batch_scratch_;
};

}  // namespace oci::link
