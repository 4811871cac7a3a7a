#include "oci/link/wdm_link.hpp"

#include <algorithm>
#include <stdexcept>

#include "oci/link/link_engine.hpp"

namespace oci::link {

using photonics::PhotonArrival;
using util::BitRate;
using util::RngStream;
using util::Time;

WdmLink::WdmLink(const WdmLinkConfig& config, RngStream& process_rng) : config_(config) {
  if (config_.grid.channels == 0) {
    throw std::invalid_argument("WdmLink: need at least one channel");
  }
  if (config_.path_transmittance <= 0.0 || config_.path_transmittance > 1.0) {
    throw std::invalid_argument("WdmLink: path transmittance must be in (0,1]");
  }
  if (!config_.channel_power_scale.empty()) {
    if (config_.channel_power_scale.size() != config_.grid.channels) {
      throw std::invalid_argument("WdmLink: one channel_power_scale entry per channel");
    }
    for (const double s : config_.channel_power_scale) {
      if (s < 0.0) throw std::invalid_argument("WdmLink: channel power scale must be >= 0");
    }
  }
  crosstalk_ = photonics::crosstalk_matrix(config_.grid, config_.filter);
  links_.reserve(config_.grid.channels);
  for (std::size_t i = 0; i < config_.grid.channels; ++i) {
    OpticalLinkConfig c = config_.base;
    c.led.wavelength = config_.grid.wavelength(i);
    c.channel_transmittance = path_for(i) * config_.filter.passband_transmittance;
    // Scaling the LAUNCH power (not the path) makes a killed channel's
    // aggressor leakage die with it: photons_per_pulse() feeds both the
    // victim's own lambda and every neighbour's collected mean.
    if (!config_.channel_power_scale.empty()) {
      c.led.peak_power =
          util::Power::watts(c.led.peak_power.watts() * config_.channel_power_scale[i]);
    }
    links_.push_back(std::make_unique<OpticalLink>(c, process_rng));
  }
}

double WdmLink::path_for(std::size_t channel) const {
  double t = config_.path_transmittance;
  if (config_.stack != nullptr) {
    t *= config_.stack->transmittance(config_.from_die, config_.to_die,
                                      config_.grid.wavelength(channel));
  }
  return t;
}

double WdmLink::collected_fraction(std::size_t receiver, std::size_t source) const {
  return path_for(source) * crosstalk_.at(receiver).at(source);
}

BitRate WdmLink::RunResult::aggregate_goodput() const {
  double sum = 0.0;
  for (const auto& r : per_channel) sum += r.stats.goodput().bits_per_second();
  return BitRate::bits_per_second(sum);
}

double WdmLink::RunResult::worst_symbol_error_rate() const {
  double worst = 0.0;
  for (const auto& r : per_channel) worst = std::max(worst, r.stats.symbol_error_rate());
  return worst;
}

void WdmLink::check_streams(const std::vector<std::vector<std::uint64_t>>& symbols) const {
  if (symbols.size() != links_.size()) {
    throw std::invalid_argument("WdmLink: one symbol stream per channel required");
  }
  const std::size_t length = symbols.empty() ? 0 : symbols.front().size();
  for (const auto& s : symbols) {
    if (s.size() != length) {
      throw std::invalid_argument("WdmLink: symbol streams must be equal length");
    }
  }
}

WdmLink::RunResult WdmLink::transmit(const std::vector<std::vector<std::uint64_t>>& symbols,
                                     RngStream& rng) const {
  check_streams(symbols);
  const std::size_t length = symbols.empty() ? 0 : symbols.front().size();
  const std::size_t k = links_.size() - 1;  // aggressors per victim

  // One driver run per channel. All channels run symbol-aligned off one
  // period (the template design is shared, so periods are identical),
  // so every aggressor pulse sits where its channel's symbol put it in
  // the victim's window.
  RunResult result;
  result.per_channel.resize(links_.size());
  std::vector<double> means(k);
  std::vector<double> starts(length * k);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    // Leakage of every aggressor through victim i's demux port: one
    // optical mean per other channel (photons collected at victim i),
    // merged by the engine's k-way hazard streams -- no photon
    // materialisation.
    std::size_t a = 0;
    for (std::size_t j = 0; j < links_.size(); ++j) {
      if (j == i) continue;
      means[a] = links_[j]->led().photons_per_pulse() * collected_fraction(i, j);
      for (std::size_t w = 0; w < length; ++w) {
        starts[w * k + a] = links_[j]->ppm().encode(symbols[j][w]).seconds();
      }
      ++a;
    }
    OpticalLink::RunResult& chan = result.per_channel[i];
    chan.decoded.reserve(length);
    chan.erased.reserve(length);
    chan.stats = LinkEngine(*links_[i]).run_sequence(
        symbols[i], rng,
        [&chan](std::size_t, const LinkEngine::SymbolOutcome& out) {
          chan.decoded.push_back(out.decoded);
          chan.erased.push_back(out.erased);
        },
        {.aggressor_means = means, .aggressor_starts_s = starts});
  }
  return result;
}

WdmLink::RunResult WdmLink::transmit_reference(
    const std::vector<std::vector<std::uint64_t>>& symbols, RngStream& rng) const {
  check_streams(symbols);
  const std::size_t length = symbols.empty() ? 0 : symbols.front().size();

  RunResult result;
  result.per_channel.resize(links_.size());
  std::vector<Time> dead_until(links_.size(), Time::zero());
  Time window_start = Time::zero();
  for (std::size_t w = 0; w < length; ++w) {
    std::vector<Time> pulse_start(links_.size());
    for (std::size_t j = 0; j < links_.size(); ++j) {
      pulse_start[j] = window_start + links_[j]->ppm().encode(symbols[j][w]);
    }
    for (std::size_t i = 0; i < links_.size(); ++i) {
      // Materialise every leaked photon and push it through the
      // per-photon reference pipeline -- the oracle the engine path
      // above is statistically pinned against.
      std::vector<PhotonArrival> interference;
      for (std::size_t j = 0; j < links_.size(); ++j) {
        if (j == i) continue;
        const double mean = links_[j]->led().photons_per_pulse() * collected_fraction(i, j);
        const auto n = rng.poisson(mean);
        for (std::int64_t p = 0; p < n; ++p) {
          const Time offset = links_[j]->led().sample_emission_time(rng.uniform());
          interference.push_back(PhotonArrival{pulse_start[j] + offset, /*is_signal=*/false});
        }
      }
      std::sort(interference.begin(), interference.end(),
                [](const PhotonArrival& a, const PhotonArrival& b) { return a.time < b.time; });

      auto& chan = result.per_channel[i];
      const std::uint64_t erasures_before = chan.stats.erasures;
      chan.decoded.push_back(links_[i]->transmit_symbol_reference(
          symbols[i][w], window_start, dead_until[i], chan.stats, rng,
          std::move(interference)));
      chan.erased.push_back(chan.stats.erasures != erasures_before);
    }
    window_start += links_.front()->symbol_period();
  }
  return result;
}

std::vector<std::vector<std::uint64_t>> WdmLink::random_streams(
    std::uint64_t symbols_per_channel, RngStream& rng) const {
  std::vector<std::vector<std::uint64_t>> streams(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const std::uint64_t max_symbol =
        (std::uint64_t{1} << links_[i]->bits_per_symbol()) - 1;
    streams[i].reserve(symbols_per_channel);
    for (std::uint64_t s = 0; s < symbols_per_channel; ++s) {
      streams[i].push_back(static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(max_symbol))));
    }
  }
  return streams;
}

WdmLink::RunResult WdmLink::measure(std::uint64_t symbols_per_channel,
                                    RngStream& rng) const {
  return transmit(random_streams(symbols_per_channel, rng), rng);
}

WdmLink::RunResult WdmLink::measure_reference(std::uint64_t symbols_per_channel,
                                              RngStream& rng) const {
  return transmit_reference(random_streams(symbols_per_channel, rng), rng);
}

}  // namespace oci::link
