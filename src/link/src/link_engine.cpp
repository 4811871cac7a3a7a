#include "oci/link/link_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace oci::link {

namespace {

using util::RngStream;
using util::Time;

kernels::BatchParams resolve_params(const OpticalLink& link) {
  const spad::SpadParams& det = link.detector().params();
  kernels::BatchParams p;
  p.lambda_signal =
      link.led().photons_per_pulse() * link.config().channel_transmittance * link.detector().pdp();
  p.noise_rate = link.detector().dcr().hertz() +
                 link.config().background_rate.hertz() * link.detector().pdp();
  p.window_s = link.toa_window().seconds();
  p.dead_s = det.dead_time.seconds();
  p.afterpulse_p = det.afterpulse_probability;
  p.afterpulse_tau_s = det.afterpulse_tau.seconds();
  p.jitter_sigma_s = det.jitter_sigma.seconds();
  p.envelope_width_s = link.led().params().pulse_width.seconds();
  return p;
}

}  // namespace

LinkEngine::LinkEngine(const OpticalLink& link)
    : link_(&link),
      params_(resolve_params(link)),
      pdp_(link.detector().pdp()),
      symbol_period_(link.symbol_period()),
      tx_pulse_energy_(link.led().electrical_pulse_energy()),
      rx_energy_per_conversion_(link.config().rx_energy_per_conversion),
      bits_per_symbol_(link.bits_per_symbol()) {}

std::uint64_t LinkEngine::decode_first_avalanche(std::uint64_t symbol, double toa_s,
                                                 LinkRunStats& stats,
                                                 util::CounterRng& coins) const {
  // TDC conversion of the first avalanche's TOA within the window, then
  // the link's slot decision for the reading.
  const std::uint64_t decoded =
      link_->decide(link_->tdc().convert(Time::seconds(toa_s), coins));
  if (decoded != symbol) {
    ++stats.symbol_errors;
    stats.bit_errors += modulation::PpmCodec::hamming(symbol, decoded);
  }
  return decoded;
}

void LinkEngine::check_inputs(std::uint64_t count, const WindowInputs& in) {
  if (!in.signal_scale.empty() && in.signal_scale.size() != count) {
    throw std::invalid_argument("LinkEngine: one signal_scale entry per window");
  }
  const std::size_t k = in.aggressor_means.size();
  if (in.aggressor_starts_s.size() != k && in.aggressor_starts_s.size() != count * k) {
    throw std::invalid_argument(
        "LinkEngine: one aggressor start per aggressor, or per aggressor and window");
  }
}

LinkRunStats LinkEngine::measure(std::uint64_t count, RngStream& rng,
                                 const WindowInputs& in) const {
  return run_symbols(count, rng, [](std::uint64_t, const SymbolOutcome&) {}, in);
}

void LinkEngine::simulate_windows(std::span<WindowResult> windows,
                                  const util::BatchRngStream& lanes,
                                  EngineBatchScratch& /*scratch*/,
                                  std::uint64_t first_lane) const {
  kernels::simulate_windows(params_, windows, lanes, first_lane);
}

void LinkEngine::run_window_batch(std::span<const std::uint64_t> symbols,
                                  std::uint64_t first_lane,
                                  const util::BatchRngStream& lanes, double& carry_s,
                                  LinkRunStats& stats, const WindowInputs& in) const {
  const std::size_t n = symbols.size();
  // Reserve the FULL batch capacity up front: the first (possibly
  // small) batch must leave later full-size batches allocation-free.
  batch_scratch_.reserve(std::max(n, kEngineBatch));
  std::vector<WindowResult>& ws = batch_scratch_.windows_;
  ws.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    ws[j] = WindowResult{};
    ws[j].pulse_start_s = link_->ppm().encode(symbols[j]).seconds();
    // Lane 0 takes the real carry; later lanes speculate no blindness
    // (right unless the previous window's dead time spills past the
    // symbol period AND this lane's first fire lands inside it).
    ws[j].dead_in_s = j == 0 && !in.independent ? carry_s : 0.0;
  }
  kernels::LaneInputs lane_in{.rare = in.rare};
  if (!in.signal_scale.empty()) lane_in.signal_scale = in.signal_scale.subspan(first_lane, n);
  const std::size_t k = in.aggressor_means.size();
  if (k > 0) {
    std::vector<PulseSource>& agg = batch_scratch_.aggressors_;
    agg.reserve(std::max(n, kEngineBatch) * k);
    agg.resize(n * k);
    // K starts apply to every window; K per window are window-major.
    const std::size_t stride = in.aggressor_starts_s.size() == k ? 0 : k;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t a = 0; a < k; ++a) {
        agg[j * k + a].start_s = in.aggressor_starts_s[(first_lane + j) * stride + a];
        agg[j * k + a].lambda = in.aggressor_means[a] * pdp_;  // thinning: victim PDP
      }
    }
    lane_in.aggressors = agg;
  }
  kernels::simulate_windows(params_, ws, lanes, first_lane, lane_in);

  const double period_s = symbol_period_.seconds();
  batch_scratch_.decoded_.resize(n);
  double carry = carry_s;
  for (std::size_t j = 0; j < n; ++j) {
    if (!in.independent && j > 0 && carry > 0.0) {
      if (ws[j].fired && ws[j].first_fire_s < carry) {
        // Phantom fire inside the true blind interval: replay the lane
        // with the real carry. Decomposability makes the replay the
        // lane's one true history -- the counter stream restarts from
        // the lane key, so the result is exactly what a sequential
        // simulation would have produced.
        ws[j].dead_in_s = carry;
        kernels::LaneInputs one{.rare = in.rare};
        if (!lane_in.signal_scale.empty()) one.signal_scale = lane_in.signal_scale.subspan(j, 1);
        if (k > 0) one.aggressors = lane_in.aggressors.subspan(j * k, k);
        kernels::simulate_windows(params_, std::span<WindowResult>(&ws[j], 1), lanes,
                                  first_lane + j, one);
      }
      // A lane whose first fire clears the carry saw no candidate
      // inside it, so the speculative trajectory IS the true one.
    }
    // Dead-time carry into the next window, window-local to it (the
    // blind horizon advances only on a fire).
    carry = ws[j].fired ? ws[j].last_fire_s + params_.dead_s - period_s : carry - period_s;

    stats.rng_draws += ws[j].rng_draws;
    ++stats.symbols_sent;
    stats.total_bits += bits_per_symbol_;
    stats.tx_energy += tx_pulse_energy_;
    stats.rx_energy += rx_energy_per_conversion_;
    stats.elapsed += symbol_period_;
    if (!ws[j].fired) {
      ++stats.erasures;
      stats.bit_errors += modulation::PpmCodec::hamming(symbols[j], 0);
      batch_scratch_.decoded_[j] = 0;  // receiver emits all-zero on erasure
      continue;
    }
    if (!ws[j].first_is_signal) ++stats.noise_captures;
    // The conversion continues the lane past its window's draws.
    util::CounterRng coins = lanes.lane(first_lane + j, ws[j].rng_draws);
    batch_scratch_.decoded_[j] =
        decode_first_avalanche(symbols[j], ws[j].first_observed_s, stats, coins);
    stats.rng_draws += coins.draws();
  }
  carry_s = carry;
}

}  // namespace oci::link
