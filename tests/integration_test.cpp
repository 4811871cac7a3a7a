// Cross-module integration tests: full receiver chains, analytic-vs-
// Monte-Carlo agreement, bus frame exchange, and the paper's
// qualitative claims end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "oci/bus/vertical_bus.hpp"
#include "oci/electrical/pad.hpp"
#include "oci/link/budget.hpp"
#include "oci/link/error_model.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/modulation/ook.hpp"
#include "oci/spad/spad.hpp"

namespace {

using namespace oci;
using link::OpticalLink;
using link::OpticalLinkConfig;
using link::TdcDesign;
using util::Frequency;
using util::Power;
using util::RngStream;
using util::Time;
using util::Wavelength;

OpticalLinkConfig stack_link_config() {
  OpticalLinkConfig c;
  c.design = TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.led.peak_power = Power::microwatts(200.0);
  c.led.wavelength = Wavelength::nanometres(850.0);  // NIR for through-die reach
  c.calibration_samples = 100000;
  return c;
}

TEST(Integration, LinkOverRealDieStack) {
  // Budget the channel through a 4-die stack, then run the Monte Carlo
  // link with that exact transmittance: the measured erasure rate must
  // match the budget's miss probability.
  const photonics::DieStack stack =
      photonics::DieStack::uniform(4, photonics::DieSpec{});
  auto cfg = stack_link_config();
  const photonics::MicroLed led(cfg.led);
  const spad::Spad det(cfg.spad, cfg.led.wavelength);
  const link::LinkBudget budget = link::compute_budget(led, stack, 0, 3, det);
  cfg.channel_transmittance = budget.channel_transmittance;

  RngStream rng(501);
  const OpticalLink link(cfg, rng);
  RngStream tx(503);
  const auto stats = link.measure(4000, tx);

  const double expected_miss = 1.0 - budget.pulse_detection_probability;
  const double measured_miss =
      static_cast<double>(stats.erasures) / static_cast<double>(stats.symbols_sent);
  EXPECT_NEAR(measured_miss, expected_miss, 0.03 + 2.0 * expected_miss);
}

TEST(Integration, AnalyticErrorModelTracksMonteCarlo) {
  // Configure a link whose dominant error is jitter, then check the
  // analytic budget predicts the Monte Carlo SER within a factor ~2.
  auto cfg = stack_link_config();
  cfg.channel_transmittance = 0.8;
  cfg.bits_per_symbol = 8;  // slot ~ 208 ps
  cfg.spad.jitter_sigma = Time::picoseconds(120.0);
  cfg.spad.dcr_at_ref = Frequency::hertz(0.0);
  cfg.spad.afterpulse_probability = 0.0;

  RngStream rng(509);
  const OpticalLink link(cfg, rng);
  RngStream tx(521);
  const auto stats = link.measure(20000, tx);

  link::ErrorBudgetInputs in;
  in.pulse_detection_probability = 1.0;
  in.noise_rate = Frequency::hertz(0.0);
  in.afterpulse_probability = 0.0;
  in.toa_window = link.toa_window();
  in.slot_width = link.ppm().config().slot_width;
  // Timing noise: SPAD jitter + LED envelope spread (~rect width/sqrt12)
  // + TDC quantisation (~LSB/sqrt12).
  in.timing_sigma = link::rss_sigma(
      cfg.spad.jitter_sigma,
      Time::seconds(cfg.led.pulse_width.seconds() / std::sqrt(12.0)),
      Time::seconds(link.tdc().lsb().seconds() / std::sqrt(12.0)));
  in.bits_per_symbol = link.bits_per_symbol();
  const auto analytic = link::compute_error_budget(in);

  ASSERT_GT(stats.symbol_error_rate(), 0.0);
  EXPECT_GT(stats.symbol_error_rate(), analytic.symbol_error_rate * 0.3);
  EXPECT_LT(stats.symbol_error_rate(), analytic.symbol_error_rate * 3.0 + 0.02);
}

TEST(Integration, PpmBeatsOokUnderDeadTime) {
  // The paper's core argument: with a dead-time-limited SPAD, PPM
  // throughput exceeds the OOK ceiling 1/dead_time.
  const Time dead = Time::nanoseconds(40.0);
  const auto ook = modulation::ook_dead_time_limited_rate(dead);
  const auto best =
      link::best_design(Time::picoseconds(52.0), dead, 8, 512, 0, 8);
  ASSERT_TRUE(best.has_value());
  EXPECT_GT(best->tp.bits_per_second(), 5.0 * ook.bits_per_second());
}

TEST(Integration, OpticalReceiverBeatsPadOnArea) {
  // "The total area of the receiving system is also a fraction of
  // standard pads."
  const electrical::WireBondPad pad(electrical::WireBondPadParams{});
  const spad::SpadParams spad_params;
  const photonics::MicroLedParams led_params;
  EXPECT_LT(spad_params.footprint.square_micrometres(),
            pad.params().pad_area.square_micrometres() / 4.0);
  EXPECT_LT(led_params.footprint.square_micrometres(),
            pad.params().pad_area.square_micrometres() / 4.0);
}

TEST(Integration, RecalibrationRestoresLinkAfterTemperatureStep) {
  auto cfg = stack_link_config();
  cfg.channel_transmittance = 0.8;
  cfg.bits_per_symbol = 8;  // narrow slots so calibration matters
  cfg.spad.jitter_sigma = Time::picoseconds(20.0);

  RngStream rng(541);
  OpticalLink link(cfg, rng);
  RngStream tx(547);
  const double ser_cold = link.measure(4000, tx).symbol_error_rate();

  // Step the junction to 80 C without recalibrating.
  link.set_temperature(util::Temperature::celsius(80.0));
  const double ser_hot_stale = link.measure(4000, tx).symbol_error_rate();

  // Recalibrate at temperature.
  RngStream cal(557);
  const std::uint64_t training_draws = link.recalibrate(200000, cal);
  EXPECT_GE(training_draws, 1000u);  // 1000 training lanes, each draws its signal hazard
  const double ser_hot_fresh = link.measure(4000, tx).symbol_error_rate();

  EXPECT_GT(ser_hot_stale, ser_cold);
  EXPECT_LT(ser_hot_fresh, ser_hot_stale);
}

TEST(Integration, BusFrameExchange) {
  // A 4-die bus: the master broadcasts a frame, each die receives it on
  // its own link instance, one die after another. Verifies bus + link
  // compose.
  auto cfg = stack_link_config();
  const photonics::DieStack stack =
      photonics::DieStack::uniform(4, photonics::DieSpec{});
  const photonics::MicroLed led(cfg.led);
  const spad::Spad det(cfg.spad, cfg.led.wavelength);

  std::vector<std::unique_ptr<OpticalLink>> links;
  RngStream process(563);
  for (std::size_t die = 1; die < 4; ++die) {
    auto c = cfg;
    c.channel_transmittance =
        link::compute_budget(led, stack, 0, die, det).channel_transmittance;
    links.push_back(std::make_unique<OpticalLink>(c, process));
  }

  modulation::Frame request;
  const std::string msg = "sync";
  request.payload.assign(msg.begin(), msg.end());

  int delivered = 0;
  RngStream tx(569);
  for (const auto& l : links) {
    const auto result = l->transmit_frame(request, tx);
    if (result.frame.has_value() && result.frame->payload == request.payload) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 3);
}

TEST(Integration, BroadcastFeasibilityMatchesBudget) {
  // VerticalBus says a die is serviceable iff its detection probability
  // clears the threshold; verify against direct budget computation.
  bus::VerticalBusConfig c;
  c.dies = 10;
  c.design = TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.led.peak_power = Power::microwatts(200.0);
  c.led.wavelength = Wavelength::nanometres(850.0);
  const bus::VerticalBus vbus(c);
  const photonics::MicroLed led(c.led);
  const spad::Spad det(c.spad, c.led.wavelength);
  for (const auto& r : vbus.downstream_reports()) {
    if (r.die == c.master) continue;
    const auto b = link::compute_budget(led, vbus.stack(), c.master, r.die, det);
    EXPECT_EQ(r.serviceable, b.pulse_detection_probability >= c.min_detection_probability)
        << "die " << r.die;
  }
}

TEST(Integration, FullResolutionMatchesPaperThroughputWhenNoiseless) {
  // With jitter, noise and misses switched off, the Monte Carlo link at
  // full K = log2(N)+C resolution must realise the paper's TP exactly
  // (raw throughput == bits / MW) with zero errors.
  OpticalLinkConfig cfg;
  cfg.design = TdcDesign{64, 3, Time::picoseconds(52.0)};
  cfg.bits_per_symbol = 0;  // full resolution
  cfg.channel_transmittance = 1.0;
  cfg.led.peak_power = Power::microwatts(500.0);
  cfg.led.pulse_width = Time::picoseconds(40.0);  // narrower than the 52 ps slot
  cfg.spad.jitter_sigma = Time::zero();
  cfg.spad.dcr_at_ref = Frequency::hertz(0.0);
  cfg.spad.afterpulse_probability = 0.0;
  // Idealised fast-quench SPAD: dead time below Rf so the auto guard
  // resolves to zero and the symbol period equals the paper's MW.
  cfg.spad.dead_time = Time::nanoseconds(1.0);
  cfg.delay_line.mismatch_sigma = 0.0;
  cfg.delay_line.metastability_window = Time::zero();
  cfg.calibrate = true;
  cfg.calibration_samples = 400000;

  RngStream rng(571);
  const OpticalLink link(cfg, rng);
  RngStream tx(577);
  const auto stats = link.measure(1500, tx);
  EXPECT_EQ(stats.symbol_errors + stats.erasures, 0u)
      << "SER = " << stats.symbol_error_rate();
  EXPECT_NEAR(stats.raw_throughput().bits_per_second(),
              link.analytic_throughput().bits_per_second(),
              link.analytic_throughput().bits_per_second() * 1e-9);
}

}  // namespace
