#include "oci/rare/rare.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "oci/link/link_engine.hpp"

namespace oci::rare {

namespace {

using util::RngStream;

/// Two-sided normal survival P(|Z| >= z).
double survival(double z) { return std::erfc(z / std::sqrt(2.0)); }

/// Runs `count` i.i.d. symbol windows under `proposal`, weighting every
/// per-symbol outcome by base_weight x exp(log LR).
void run_weighted(const link::LinkEngine& engine, const link::RareSampling& proposal,
                  double base_weight, std::uint64_t count, RngStream& rng, ChunkResult& out) {
  const auto weigh = [&](std::uint64_t, const link::LinkEngine::SymbolOutcome& o) {
    const double w = base_weight * std::exp(o.log_weight);
    out.weights.add(w);
    const bool sym_err = !o.erased && o.decoded != o.sent;
    if (sym_err) out.w_symbol_errors += w;
    if (o.erased) out.w_erasures += w;
    if (sym_err || o.erased) out.err_weight_sq += w * w;  // ser = errors + erasures
    out.w_bit_errors +=
        w * static_cast<double>(modulation::PpmCodec::hamming(o.sent, o.decoded));
    if (o.noise_capture) out.w_noise_captures += w;
  };
  out.stats += engine.run_symbols(count, rng, weigh, {.rare = &proposal, .independent = true});
  out.samples += count;
}

ChunkResult run_tilted(const link::OpticalLink& link, const RareSpec& spec,
                       std::uint64_t samples, std::uint64_t point_index,
                       RngStream& rng) {
  const link::LinkEngine engine(link);
  link::RareSampling proposal;
  proposal.jitter_scale = spec.jitter_tilt;
  proposal.noise_scale = spec.noise_tilt;
  ChunkResult out;
  RngStream stream = rng.fork("rare/" + std::to_string(point_index) + "/tilt");
  run_weighted(engine, proposal, 1.0, samples, stream, out);
  out.rng_draws = stream.draws() + out.stats.rng_draws;
  return out;
}

ChunkResult run_split(const link::OpticalLink& link, const RareSpec& spec,
                      std::uint64_t samples, std::uint64_t point_index,
                      RngStream& rng) {
  const double half_slot_s = 0.5 * link.ppm().config().slot_width.seconds();
  const double sigma_s = link.detector().params().jitter_sigma.seconds();
  std::vector<Band> bands = resolve_bands(spec, half_slot_s, sigma_s);
  // Too few samples to cover every stratum: collapse to the single
  // unconditioned band rather than silently dropping strata (a missing
  // positive-mass band would bias the estimate).
  if (samples < bands.size()) bands.assign(1, Band{});

  const link::LinkEngine engine(link);
  ChunkResult out;
  // Fixed-effort allocation: an equal share per band, remainder to the
  // first (bulk) bands. Per-sample weight mass_b x samples / n_b keeps
  // sum(w) == samples exactly, matching the tilt normalisation.
  const std::uint64_t n_bands = bands.size();
  const std::uint64_t share = samples / n_bands;
  const std::uint64_t remainder = samples % n_bands;
  const std::string prefix = "rare/" + std::to_string(point_index) + "/";
  for (std::uint64_t b = 0; b < n_bands; ++b) {
    const std::uint64_t n_b = share + (b < remainder ? 1 : 0);
    if (n_b == 0) continue;
    link::RareSampling proposal;
    proposal.condition_jitter = n_bands > 1;  // single band == crude
    proposal.band_survival_lo = bands[b].survival_lo;
    proposal.band_survival_hi = bands[b].survival_hi;
    const double weight =
        bands[b].mass * static_cast<double>(samples) / static_cast<double>(n_b);
    // Per-LEVEL streams: band b's samples come from their own fork, so
    // one band's trajectory count never perturbs another's draws.
    RngStream stream = rng.fork(prefix + std::to_string(b));
    run_weighted(engine, proposal, weight, n_b, stream, out);
    out.rng_draws += stream.draws();
  }
  out.rng_draws += out.stats.rng_draws;
  return out;
}

}  // namespace

std::vector<double> parse_levels(const std::string& text) {
  std::vector<double> levels;
  if (text.empty()) return levels;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ':')) {
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("rare: malformed level '" + item + "' in '" + text +
                                  "'");
    }
    // Reject trailing junk ("2x") and padding stod would skip.
    while (used < item.size() && std::isspace(static_cast<unsigned char>(item[used]))) {
      ++used;
    }
    if (used != item.size() || !std::isfinite(value) || value < 0.0) {
      throw std::invalid_argument("rare: malformed level '" + item + "' in '" + text +
                                  "'");
    }
    levels.push_back(value);
  }
  if (text.back() == ':') {
    throw std::invalid_argument("rare: malformed level schedule '" + text + "'");
  }
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i] >= levels[i - 1]) {
      throw std::invalid_argument("rare: levels must be strictly decreasing, got '" +
                                  text + "'");
    }
  }
  return levels;
}

std::vector<Band> resolve_bands(const RareSpec& spec, double half_slot_s,
                                double jitter_sigma_s) {
  std::vector<Band> bands;
  if (jitter_sigma_s <= 0.0 || half_slot_s <= 0.0) {
    bands.push_back(Band{});  // no jitter axis to stratify: crude band
    return bands;
  }
  const double z_boundary = half_slot_s / jitter_sigma_s;
  // Thresholds z_k in increasing order: explicit margins count down
  // from the decode boundary; the auto schedule spaces split_levels
  // thresholds evenly below it.
  std::vector<double> thresholds;
  if (!spec.levels.empty()) {
    for (const double margin : parse_levels(spec.levels)) {
      thresholds.push_back(std::max(z_boundary - margin, 0.0));
    }
    std::sort(thresholds.begin(), thresholds.end());
  } else {
    const double k = static_cast<double>(spec.split_levels);
    for (std::uint32_t i = 1; i <= spec.split_levels; ++i) {
      thresholds.push_back(z_boundary * static_cast<double>(i) / (k + 1.0));
    }
  }
  // Band edges 0 = e_0 < e_1 < ... (clamped duplicates merge away).
  std::vector<double> edges{0.0};
  for (const double z : thresholds) {
    if (z > edges.back()) edges.push_back(z);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    Band band;
    band.survival_lo = survival(edges[i]);
    band.survival_hi = i + 1 < edges.size() ? survival(edges[i + 1]) : 0.0;
    band.mass = band.survival_lo - band.survival_hi;
    // An underflowed stratum (S(z) rounds to 0 this deep) carries no
    // probability mass worth a stream; skip it rather than divide by it.
    if (band.mass > 0.0) bands.push_back(band);
  }
  if (bands.empty()) bands.push_back(Band{});
  return bands;
}

ChunkResult run_chunk(const link::OpticalLink& link, const RareSpec& spec,
                      std::uint64_t samples, std::uint64_t point_index,
                      RngStream& rng) {
  switch (spec.kind) {
    case Kind::kTilt:
      return run_tilted(link, spec, samples, point_index, rng);
    case Kind::kSplit:
      return run_split(link, spec, samples, point_index, rng);
    case Kind::kNone:
      break;
  }
  throw std::logic_error("rare: run_chunk requires an active RareSpec");
}

}  // namespace oci::rare
