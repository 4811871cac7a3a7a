// Zero-allocation Monte-Carlo symbol engine for the optical link.
//
// The reference pipeline (OpticalLink::transmit_symbol_reference)
// materialises every photon of a pulse, Bernoulli-thins each one by the
// SPAD's PDP and heap-merges the survivors -- for a bright micro-LED
// pulse that is thousands of pow()/Bernoulli draws and several vector
// allocations per symbol. The engine exploits two standard
// point-process identities to collapse all of that:
//
//  * Thinning: a Poisson photon stream thinned per-photon with
//    probability PDP is itself Poisson with the pre-multiplied rate
//    photons/pulse x transmittance x PDP (cached here), so avalanche
//    CANDIDATES can be drawn directly -- photons that would never
//    trigger are never generated.
//  * Restart: conditional on anything before time t, a Poisson
//    process's arrivals after t are again Poisson. Candidate arrivals
//    are therefore streamed lazily in time order (one Exp(1) hazard
//    step + one inverse-CDF evaluation each), and under active quench
//    the stream simply fast-forwards across the SPAD's dead time.
//
// Both identities hold per source, so the engine generalises to K
// merged inhomogeneous sources -- the victim's own pulse plus any
// number of aggressor pulses (WDM leakage, neighbour-channel
// crosstalk, colliding bus talkers), each an independent thinned
// Poisson process with its own envelope and start time -- via a small
// k-way merge over per-source lazy hazard states. A quiet aggressor
// costs ONE Exp(1) draw per window (its first hazard step usually
// overshoots the whole pulse mass); the reference pipeline pays a
// Poisson count draw, an envelope inverse-CDF per photon, a sort, a
// vector merge and a Bernoulli per photon for the same physics.
//
// A typical bright symbol costs ~5 RNG draws and no heap allocation.
// The single-source drivers (run_symbols / run_sequence / measure) run
// on a batched path: simulate_windows() hands whole spans of symbol
// windows to the kernel in kernels.hpp, each window a decomposable
// counter-RNG lane, and dead-time carry across consecutive windows is
// speculated flat and repaired by replaying the rare lane whose phantom
// first fire lands in the true blind interval. A lane's result depends
// only on (engine config, stream root, lane index) -- never on the
// batch size or the thread count -- and engine_batch_test pins its bits.
// Against the per-symbol API and the reference pipeline the batched
// drivers are equivalent in distribution, not draw-for-draw;
// statistical regression tests pin that agreement for the isolated,
// interference, WDM and bus-contention paths.
//
// Concurrency: the engine owns mutable scratch (the batched drivers'
// staging and transmit_symbol's source states), so no two calls may run
// concurrently on ONE engine instance. Build one engine per thread
// (cheap; every in-repo call site already does).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
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

  /// Sends one symbol window starting at absolute time `start`: returns
  /// the decoded symbol and updates `stats` and `dead_until` (the SPAD's
  /// blind carry into the next window). `request` scales the launched
  /// pulse, merges aggressor pulses and/or samples under a rare-event
  /// proposal (see WindowRequest); the default is the plain window.
  /// After the first window sizes the source states, a loop of calls is
  /// allocation-free.
  [[nodiscard]] std::uint64_t transmit_symbol(std::uint64_t symbol, util::Time start,
                                              util::Time& dead_until, LinkRunStats& stats,
                                              util::RngStream& rng,
                                              const WindowRequest& request = {}) const;

  /// Per-symbol outcome handed to run_symbols/run_sequence reducers.
  struct SymbolOutcome {
    std::uint64_t sent = 0;
    std::uint64_t decoded = 0;
    bool erased = false;  ///< no avalanche in the TOA window
  };

  /// Lanes per batch of the batched drivers. Sized so the staged
  /// windows stay L1/L2-resident between kernel and decode passes.
  static constexpr std::size_t kEngineBatch = 256;

  /// Batched single-source window physics: simulates one symbol window
  /// per lane of `windows` (inputs: pulse_start_s / dead_in_s; see
  /// WindowResult). Lane i draws from the counter stream keyed by
  /// `lanes.lane_key(first_lane + i)` -- results are a pure function of
  /// (engine config, stream root, lane index), never of the batch
  /// geometry. Allocation-free; the kernel keeps every lane's state on
  /// the stack and does not touch `scratch`.
  void simulate_windows(std::span<WindowResult> windows,
                        const util::BatchRngStream& lanes, EngineBatchScratch& scratch,
                        std::uint64_t first_lane = 0) const;

  /// Streams `count` random symbols back-to-back and hands each outcome
  /// to `reduce(index, outcome)` -- the BatchRunner-friendly driver:
  /// sweeps accumulate statistics without materialising per-symbol
  /// vectors. Runs on the batched window path: one root is drawn from
  /// `rng`, then symbols and window physics come from counter streams,
  /// so the whole run is a pure function of (engine config, root).
  /// Returns the aggregated counters.
  template <typename Reducer>
  LinkRunStats run_symbols(std::uint64_t count, util::RngStream& rng,
                           Reducer&& reduce) const {
    LinkRunStats stats;
    const std::uint64_t root = rng.engine()();
    const util::BatchRngStream lanes(root, "engine-windows");
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
      run_window_batch(symbols, done, lanes, carry_s, stats, rng);
      for (std::size_t j = 0; j < n; ++j) {
        reduce(done + j, SymbolOutcome{symbols[j], batch_scratch_.decoded_[j],
                                       batch_scratch_.erased_[j] != 0});
      }
      done += n;
    }
    stats.rng_draws += symbol_rng.draws();
    return stats;
  }

  /// Same driver over a caller-provided symbol sequence.
  template <typename Reducer>
  LinkRunStats run_sequence(std::span<const std::uint64_t> symbols, util::RngStream& rng,
                            Reducer&& reduce) const {
    LinkRunStats stats;
    const std::uint64_t root = rng.engine()();
    const util::BatchRngStream lanes(root, "engine-windows");
    double carry_s = 0.0;
    std::size_t done = 0;
    while (done < symbols.size()) {
      const std::size_t n = std::min<std::size_t>(kEngineBatch, symbols.size() - done);
      run_window_batch(symbols.subspan(done, n), done, lanes, carry_s, stats, rng);
      for (std::size_t j = 0; j < n; ++j) {
        reduce(done + j, SymbolOutcome{symbols[done + j], batch_scratch_.decoded_[j],
                                       batch_scratch_.erased_[j] != 0});
      }
      done += n;
    }
    return stats;
  }

  /// Random-symbol error-rate measurement (run_symbols, no reducer).
  [[nodiscard]] LinkRunStats measure(std::uint64_t count, util::RngStream& rng) const;

  /// First avalanche of an isolated training pulse over [0, window):
  /// the observed (jittered) timestamp if the first trigger was a
  /// signal photon, nullopt on no detection or a noise capture. Used by
  /// OpticalLink::recalibrate's data-aided offset training.
  [[nodiscard]] std::optional<util::Time> probe_pulse(util::Time pulse_start,
                                                     util::RngStream& rng) const;

 private:
  /// Scalar (multi-source) window outcome; the batched single-source
  /// path uses the public link::WindowResult instead.
  struct WindowEvents {
    bool fired = false;
    bool first_is_signal = false;
    double first_observed_s = 0.0;  ///< jittered timestamp of the first avalanche
    double last_fire_s = 0.0;       ///< pre-jitter time of the last avalanche
  };

  /// Lazy candidate stream of one thinned inhomogeneous source: the
  /// cumulative hazard consumed so far and the next candidate time.
  struct SourceState {
    const photonics::MicroLed* led = nullptr;
    double lambda = 0.0;   ///< mean avalanche candidates (photons x PDP)
    double start_s = 0.0;  ///< absolute envelope start [s]
    double hazard = 0.0;   ///< cumulative hazard consumed in [0, lambda)
    double next_s = 0.0;   ///< next candidate arrival [s] (+inf = exhausted)
    bool is_signal = false;
    bool exhausted = false;
  };

  /// Builds the victim's own pulse-candidate state for a pulse at
  /// `pulse_start_s` (lambda pre-multiplied at construction).
  [[nodiscard]] SourceState signal_state(double pulse_start_s) const;

  /// Simulates the SPAD over [window_start, window_end) against the
  /// merged candidate streams of `sources` (element 0 conventionally
  /// the victim's pulse) plus flat-rate noise at `noise_rate` [Hz];
  /// `dead_in_s` is the blind carry from the previous window. A
  /// non-null `rare` tilts the noise rate / jitter proposal and
  /// accumulates the trajectory's log likelihood-ratio (see
  /// RareSampling); null reproduces the natural measure draw for draw.
  WindowEvents simulate_window(std::span<SourceState> sources, double window_start_s,
                               double window_end_s, double dead_in_s, double noise_rate,
                               util::RngStream& rng, RareSampling* rare = nullptr) const;

  /// TDC conversion + PPM decision + error counting for the first
  /// avalanche observed at window-local `toa_s`; shared by the scalar
  /// and batched finish paths.
  std::uint64_t decode_first_avalanche(std::uint64_t symbol, double toa_s,
                                       LinkRunStats& stats, util::RngStream& rng) const;

  /// Engine constants of the batched kernel (envelope pre-resolved).
  [[nodiscard]] kernels::BatchParams batch_params() const;

  /// One batch of the batched drivers: simulates `symbols` as
  /// consecutive windows (lane indices first_lane..), repairs the
  /// speculative dead-time carry, accounts stats, and stages
  /// decoded/erased per lane in the scratch. `carry_s` is the
  /// window-local blind carry into the first lane, updated to the carry
  /// into the batch after this one. `rng` serves only the TDC
  /// conversions, in lane order, exactly like the per-symbol path.
  void run_window_batch(std::span<const std::uint64_t> symbols, std::uint64_t first_lane,
                        const util::BatchRngStream& lanes, double& carry_s,
                        LinkRunStats& stats, util::RngStream& rng) const;

  const OpticalLink* link_;
  const photonics::MicroLed* led_;
  /// Cached PDP/transmittance product: mean avalanche candidates per
  /// pulse = photons/pulse x transmittance x PDP.
  double lambda_signal_ = 0.0;
  /// Victim PDP alone: thins aggressor SourcePulse optical means.
  double pdp_ = 0.0;
  /// Dark-count rate alone [Hz] -- the noise floor of a training probe.
  double dark_rate_ = 0.0;
  /// Flat candidate rate [Hz]: DCR + PDP-thinned background flux.
  double noise_rate_ = 0.0;
  double window_s_ = 0.0;
  double dead_s_ = 0.0;
  bool passive_quench_ = false;
  double afterpulse_probability_ = 0.0;
  util::Time afterpulse_tau_;
  util::Time jitter_sigma_;
  util::Time symbol_period_;
  util::Energy tx_pulse_energy_;
  util::Energy rx_energy_per_conversion_;
  unsigned bits_per_symbol_ = 0;
  /// Batched-driver working memory (see the concurrency note above).
  mutable EngineBatchScratch batch_scratch_;
  /// transmit_symbol's merge states, refilled every window (same
  /// concurrency note).
  mutable std::vector<SourceState> sources_;
};

}  // namespace oci::link
