#include "oci/link/optical_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "oci/link/link_engine.hpp"
#include "oci/util/math.hpp"

namespace oci::link {

namespace {

using util::BitRate;
using util::Energy;
using util::RngStream;
using util::Time;

unsigned resolve_bits(const OpticalLinkConfig& c) {
  const unsigned full = util::ilog2(c.design.fine_elements) + c.design.coarse_bits;
  if (c.bits_per_symbol == 0) return full;
  if (c.bits_per_symbol > full) {
    throw std::invalid_argument(
        "OpticalLink: bits_per_symbol exceeds the TDC's log2(N)+C resolution");
  }
  return c.bits_per_symbol;
}

tdc::DelayLineParams line_params(const OpticalLinkConfig& c) {
  tdc::DelayLineParams p = c.delay_line;
  // Physical chain: N code elements plus margin so process mismatch and
  // hot/slow-corner operation cannot leave the clock period uncovered
  // (the paper's 96-element chain covering a 5 ns period with 93 used).
  const std::uint64_t n = c.design.fine_elements;
  p.elements = static_cast<std::size_t>(n + std::max<std::uint64_t>(4, n / 8));
  p.nominal_delay = c.design.element_delay;
  return p;
}

tdc::TdcConfig tdc_config(const OpticalLinkConfig& c) {
  tdc::TdcConfig t;
  t.coarse_bits = c.design.coarse_bits;
  t.clock_period = c.design.element_delay * static_cast<double>(c.design.fine_elements);
  return t;
}

modulation::PpmConfig ppm_config(const OpticalLinkConfig& c, unsigned bits) {
  modulation::PpmConfig p;
  p.bits_per_symbol = bits;
  const Time window =
      c.design.element_delay * static_cast<double>(c.design.fine_elements) *
      static_cast<double>(std::uint64_t{1} << c.design.coarse_bits);
  p.slot_width = Time::seconds(window.seconds() /
                               static_cast<double>(std::uint64_t{1} << bits));
  p.labeling = c.labeling;
  return p;
}

}  // namespace

double LinkRunStats::symbol_error_rate() const {
  if (symbols_sent == 0) return 0.0;
  return static_cast<double>(symbol_errors + erasures) / static_cast<double>(symbols_sent);
}

double LinkRunStats::bit_error_rate() const {
  if (total_bits == 0) return 0.0;
  return static_cast<double>(bit_errors) / static_cast<double>(total_bits);
}

BitRate LinkRunStats::raw_throughput() const {
  if (elapsed <= Time::zero()) return BitRate::bits_per_second(0.0);
  return BitRate::bits_per_second(static_cast<double>(total_bits) / elapsed.seconds());
}

BitRate LinkRunStats::goodput() const {
  if (elapsed <= Time::zero()) return BitRate::bits_per_second(0.0);
  const double good = static_cast<double>(total_bits - bit_errors);
  return BitRate::bits_per_second(good / elapsed.seconds());
}

Energy LinkRunStats::energy_per_bit() const {
  if (total_bits == 0) return Energy::zero();
  return Energy::joules((tx_energy + rx_energy).joules() / static_cast<double>(total_bits));
}

LinkRunStats& LinkRunStats::operator+=(const LinkRunStats& other) {
  symbols_sent += other.symbols_sent;
  symbol_errors += other.symbol_errors;
  erasures += other.erasures;
  noise_captures += other.noise_captures;
  bit_errors += other.bit_errors;
  total_bits += other.total_bits;
  rng_draws += other.rng_draws;
  elapsed += other.elapsed;
  tx_energy += other.tx_energy;
  rx_energy += other.rx_energy;
  return *this;
}

OpticalLink::OpticalLink(const OpticalLinkConfig& config, RngStream& process_rng)
    : config_(config),
      led_(config.led),
      spad_(config.spad, config.led.wavelength, config.temperature),
      tdc_(
          [&] {
            tdc::DelayLine line(line_params(config), process_rng);
            line.set_conditions(config.temperature);
            return line;
          }(),
          tdc_config(config)),
      ppm_(ppm_config(config, resolve_bits(config))),
      framer_(ppm_),
      stream_(led_, config.channel_transmittance),
      bits_per_symbol_(resolve_bits(config)),
      detection_offset_(config.led.pulse_width * 0.5) {
  if (config_.inter_symbol_guard >= Time::zero()) {
    guard_ = config_.inter_symbol_guard;
  } else {
    // Auto: worst-case inter-pulse gap is Rf (late pulse then early
    // pulse); pad it to the SPAD dead time.
    const Time rf = tdc_.clock_period();
    const Time dead = config_.spad.dead_time;
    guard_ = dead > rf ? dead - rf : Time::zero();
  }
  if (config_.calibrate) {
    RngStream cal_rng = process_rng.fork("construction-calibration");
    recalibrate(config_.calibration_samples, cal_rng);
  }
}

BitRate OpticalLink::analytic_throughput() const { return throughput(config_.design); }

std::uint64_t OpticalLink::recalibrate(std::uint64_t samples, RngStream& rng) {
  const tdc::NonlinearityReport rep = tdc::code_density_test(tdc_, samples, rng);
  lut_ = tdc::CalibrationLut(rep);

  // Data-aided offset training: fire the transmitter at known TOAs and
  // average the reconstruction residual through the full chain. This
  // measures the mean first-detected-photon delay at the operating
  // brightness (NOT the envelope mean -- a bright pulse triggers near
  // its leading edge) together with any residual TDC bias.
  // The training pulses are independent windows: one kernel batch on
  // lanes keyed like a driver call's, each conversion continuing its
  // probe's lane. Training is a controlled procedure: the dark-count
  // rate is intrinsic to the junction and stays, but ambient background
  // flux is excluded.
  constexpr std::size_t kTrainingPulses = 1000;
  kernels::BatchParams training = LinkEngine(*this).kernel_params();
  training.noise_rate = spad_.dcr().hertz();
  const std::uint64_t root = rng.engine()();
  const util::BatchRngStream lanes(root, LinkEngine::kWindowLanes);
  // Random positions over most of the window average out local INL.
  util::CounterRng positions(util::BatchRngStream(root, "training-positions").lane_key(0));
  const double span_s = tdc_.toa_window().seconds() * 0.75;
  std::vector<WindowResult> probes(kTrainingPulses);
  for (WindowResult& w : probes) w.pulse_start_s = positions.uniform() * span_s;
  kernels::simulate_windows(training, probes, lanes, 0);
  double residual_sum_s = 0.0;
  std::int64_t training_hits = 0;
  std::uint64_t lane_draws = positions.draws();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const WindowResult& w = probes[i];
    lane_draws += w.rng_draws;
    if (!w.fired || !w.first_is_signal) continue;  // no detection, or a noise capture
    // The conversion continues the probe's lane past its window draws.
    util::CounterRng coins = lanes.lane(i, w.rng_draws);
    const tdc::TdcReading reading = tdc_.convert(Time::seconds(w.first_observed_s), coins);
    lane_draws += coins.draws();
    residual_sum_s += lut_.correct(reading, tdc_.clock_period()).seconds() - w.pulse_start_s;
    ++training_hits;
  }
  if (training_hits > 0) {
    detection_offset_ = Time::seconds(residual_sum_s / static_cast<double>(training_hits));
  }
  return lane_draws;
}

void OpticalLink::set_temperature(util::Temperature t) {
  // The delay line first: it rejects a temperature that gives it a
  // non-positive delay, and then nothing has changed.
  tdc_.set_conditions(t);
  spad_.set_temperature(t);
}

std::uint64_t OpticalLink::transmit_symbol_reference(
    std::uint64_t symbol, Time start, Time& dead_until, LinkRunStats& stats, RngStream& rng,
    std::vector<photonics::PhotonArrival> interference) const {
  const Time window = tdc_.toa_window();
  // Pulse start: the codec places it inside the symbol's slot.
  const Time pulse_start = start + ppm_.encode(symbol);

  std::vector<photonics::PhotonArrival> photons = stream_.sample_pulse(pulse_start, rng);
  if (config_.background_rate.hertz() > 0.0) {
    photons = photonics::PhotonStream::merge(
        std::move(photons), photonics::PhotonStream::sample_background(
                                config_.background_rate, start, window, rng));
  }
  if (!interference.empty()) {
    photons = photonics::PhotonStream::merge(std::move(photons), std::move(interference));
  }

  const std::vector<spad::Detection> detections =
      spad_.detect(photons, start, window, rng, dead_until);

  // SPAD stays blind into the next window after its last avalanche.
  if (!detections.empty()) {
    dead_until = detections.back().true_time + spad_.params().dead_time;
  }

  ++stats.symbols_sent;
  stats.total_bits += bits_per_symbol_;
  stats.tx_energy += led_.electrical_pulse_energy();
  stats.rx_energy += config_.rx_energy_per_conversion;
  stats.elapsed += symbol_period();

  if (detections.empty()) {
    ++stats.erasures;
    stats.bit_errors += modulation::PpmCodec::hamming(symbol, 0);
    return 0;  // receiver emits the all-zero symbol on erasure
  }

  const spad::Detection& first = detections.front();
  if (first.cause != spad::DetectionCause::kSignal) ++stats.noise_captures;

  // TDC conversion of the first avalanche's TOA within the window.
  const std::uint64_t decoded = decide(tdc_.convert(first.time - start, rng));
  if (decoded != symbol) {
    ++stats.symbol_errors;
    stats.bit_errors += modulation::PpmCodec::hamming(symbol, decoded);
  }
  return decoded;
}

OpticalLink::RunResult OpticalLink::transmit(const std::vector<std::uint64_t>& symbols,
                                             RngStream& rng) const {
  RunResult result;
  result.decoded.reserve(symbols.size());
  result.erased.reserve(symbols.size());
  const LinkEngine engine(*this);
  result.stats = engine.run_sequence(
      symbols, rng, [&](std::size_t, const LinkEngine::SymbolOutcome& out) {
        result.decoded.push_back(out.decoded);
        result.erased.push_back(out.erased);
      });
  return result;
}

LinkRunStats OpticalLink::measure(std::uint64_t symbol_count, RngStream& rng) const {
  return LinkEngine(*this).measure(symbol_count, rng);
}

OpticalLink::FrameResult OpticalLink::transmit_frame(const modulation::Frame& frame,
                                                     RngStream& rng) const {
  const std::vector<std::uint64_t> symbols = framer_.serialize(frame);
  RunResult run = transmit(symbols, rng);
  FrameResult out;
  out.stats = run.stats;
  if (auto parsed = framer_.deserialize(run.decoded)) {
    out.frame = std::move(parsed->frame);
  }
  return out;
}

}  // namespace oci::link
