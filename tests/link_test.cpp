// Unit tests for the core link library: trade-off model (and its
// identities over the design grid), budget, error model, Monte Carlo
// link, calibration controller, channel array and FEC link.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "support/stat_assert.hpp"

#include "oci/link/budget.hpp"
#include "oci/link/calibration_controller.hpp"
#include "oci/link/channel_array.hpp"
#include "oci/link/error_model.hpp"
#include "oci/link/fec_link.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/link/tradeoff.hpp"

namespace {

using namespace oci;
using namespace oci::link;
using oci::util::Energy;
using oci::util::Frequency;
using oci::util::Length;
using oci::util::Power;
using oci::util::RngStream;
using oci::util::Temperature;
using oci::util::Time;
using oci::util::Wavelength;

// ---------- trade-off model (the paper's equations) ----------

TEST(Tradeoff, PaperFormulasExactly) {
  // N = 96, C = 5, delta = 52 ps (the paper's FPGA prototype scale).
  const TdcDesign d{96, 5, Time::picoseconds(52.0)};
  const double rf = 96 * 52e-12;
  EXPECT_NEAR(fine_range(d).seconds(), rf, 1e-18);
  EXPECT_NEAR(measurement_window(d).seconds(), (32 + 1) * rf, 1e-18);
  EXPECT_NEAR(detection_cycle(d).seconds(), 32 * rf, 1e-18);
  EXPECT_DOUBLE_EQ(bits_per_sample(d), 6.0 + 5.0);  // floor(log2 96) + 5
  EXPECT_NEAR(throughput(d).bits_per_second(), 11.0 / ((32 + 1) * rf), 1e-3);
}

TEST(Tradeoff, MultiGbpsIsReachable) {
  // The paper claims "throughputs of several gigabits per second":
  // N=16, C=2, delta=10 ps (ASIC-class delta): MW = 0.8 ns, 6 bits -> 7.5 Gbps.
  const TdcDesign asic{16, 2, Time::picoseconds(10.0)};
  EXPECT_GT(throughput(asic).gigabits_per_second(), 5.0);
}

TEST(Tradeoff, ThroughputDecreasesWithC_AtLargeC) {
  // Bits grow linearly in C but MW grows exponentially: TP must fall.
  const Time delta = Time::picoseconds(52.0);
  const double tp_c2 = throughput(TdcDesign{64, 2, delta}).bits_per_second();
  const double tp_c8 = throughput(TdcDesign{64, 8, delta}).bits_per_second();
  EXPECT_GT(tp_c2, tp_c8);
}

TEST(Tradeoff, DetectionCycleMatchesTdcRange) {
  const TdcDesign d{128, 4, Time::picoseconds(40.0)};
  // DC = MW - Rf: the SPAD recovers during the TDC reset window.
  EXPECT_NEAR(detection_cycle(d).seconds(),
              (measurement_window(d) - fine_range(d)).seconds(), 1e-18);
}

TEST(Tradeoff, FeasibilityAgainstDeadTime) {
  const Time delta = Time::picoseconds(52.0);
  // DC(64, 3) = 8 * 64 * 52ps ~ 26.6 ns < 40 ns dead time: infeasible.
  EXPECT_FALSE(feasible(TdcDesign{64, 3, delta}, Time::nanoseconds(40.0)));
  // DC(64, 4) ~ 53 ns >= 40 ns: feasible.
  EXPECT_TRUE(feasible(TdcDesign{64, 4, delta}, Time::nanoseconds(40.0)));
}

TEST(Tradeoff, SweepCoversGrid) {
  const auto grid = sweep(Time::picoseconds(52.0), Time::nanoseconds(40.0), 8, 512, 0, 8);
  // N in {8,16,...,512} = 7 values, C in {0..8} = 9 values.
  EXPECT_EQ(grid.size(), 7u * 9u);
  for (const auto& p : grid) {
    EXPECT_GT(p.tp.bits_per_second(), 0.0);
    EXPECT_GT(p.mw.seconds(), p.dc.seconds());  // MW = DC + Rf
  }
}

TEST(Tradeoff, BestDesignIsFeasibleAndOptimal) {
  const auto best = best_design(Time::picoseconds(52.0), Time::nanoseconds(40.0), 8, 512, 0, 8);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->feasible);
  for (const auto& p :
       sweep(Time::picoseconds(52.0), Time::nanoseconds(40.0), 8, 512, 0, 8)) {
    if (p.feasible) { EXPECT_LE(p.tp.bits_per_second(), best->tp.bits_per_second() + 1e-6); }
  }
}

TEST(Tradeoff, BestDesignRespectsDeadTimeMonotonically) {
  // A slower SPAD can only reduce the best achievable throughput.
  const auto fast = best_design(Time::picoseconds(52.0), Time::nanoseconds(20.0), 8, 512, 0, 8);
  const auto slow = best_design(Time::picoseconds(52.0), Time::nanoseconds(80.0), 8, 512, 0, 8);
  ASSERT_TRUE(fast && slow);
  EXPECT_GE(fast->tp.bits_per_second(), slow->tp.bits_per_second());
}

TEST(Tradeoff, ValidationThrows) {
  EXPECT_THROW((void)fine_range(TdcDesign{1, 2, Time::picoseconds(52.0)}), std::invalid_argument);
  EXPECT_THROW((void)fine_range(TdcDesign{64, 2, Time::zero()}), std::invalid_argument);
  EXPECT_THROW(sweep(Time::picoseconds(52.0), Time::nanoseconds(40.0), 64, 8, 0, 2),
               std::invalid_argument);
}

// ---------- budget ----------

oci::photonics::MicroLedParams bright_led() {
  oci::photonics::MicroLedParams p;
  p.peak_power = Power::microwatts(50.0);
  p.pulse_width = Time::picoseconds(300.0);
  return p;
}

TEST(Budget, ComputesThroughStack) {
  // Through-stack links need NIR: at 450 nm two 50 um dies absorb
  // exp(-255) of the light, so the budget is legitimately zero there.
  auto params = bright_led();
  params.wavelength = Wavelength::nanometres(850.0);
  const oci::photonics::MicroLed led(params);
  const auto stack = oci::photonics::DieStack::uniform(4, oci::photonics::DieSpec{});
  const oci::spad::Spad det(oci::spad::SpadParams{}, Wavelength::nanometres(850.0));
  const LinkBudget b = compute_budget(led, stack, 0, 2, det);
  EXPECT_GT(b.channel_transmittance, 0.0);
  EXPECT_LT(b.channel_transmittance, 1.0);
  EXPECT_NEAR(b.mean_photons_at_detector,
              led.photons_per_pulse() * b.channel_transmittance, 1e-6);
  EXPECT_NEAR(b.mean_detected_photons, b.mean_photons_at_detector * det.pdp(), 1e-9);
  EXPECT_GT(b.pulse_detection_probability, 0.0);
  EXPECT_GT(b.led_electrical_energy.joules(), b.led_optical_energy.joules());
}

TEST(Budget, RequiredPeakPowerClosesTheLoop) {
  const oci::photonics::MicroLed led(bright_led());
  const oci::spad::Spad det(oci::spad::SpadParams{}, Wavelength::nanometres(450.0));
  const double transmittance = 0.01;
  const Power p = required_peak_power(led, transmittance, det, 0.99);
  auto params = bright_led();
  params.peak_power = p;
  const oci::photonics::MicroLed led2(params);
  const double photons = led2.photons_per_pulse() * transmittance;
  EXPECT_NEAR(det.pulse_detection_probability(photons), 0.99, 1e-6);
}

TEST(Budget, RequiredPeakPowerRejectsBadTargets) {
  const oci::photonics::MicroLed led(bright_led());
  const oci::spad::Spad det(oci::spad::SpadParams{}, Wavelength::nanometres(450.0));
  EXPECT_THROW((void)required_peak_power(led, 0.5, det, 1.0), std::invalid_argument);
  EXPECT_THROW((void)required_peak_power(led, 0.0, det, 0.9), std::invalid_argument);
}

// ---------- error model ----------

TEST(ErrorModel, QFunctionKnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.96), 0.025, 1e-3);
  EXPECT_LT(q_function(6.0), 1e-8);
}

TEST(ErrorModel, RssSigma) {
  EXPECT_NEAR(rss_sigma(Time::picoseconds(30.0), Time::picoseconds(40.0)).picoseconds(),
              50.0, 1e-9);
}

TEST(ErrorModel, PerfectInputsGiveZeroError) {
  ErrorBudgetInputs in;
  in.pulse_detection_probability = 1.0;
  in.noise_rate = Frequency::hertz(0.0);
  in.afterpulse_probability = 0.0;
  in.timing_sigma = Time::zero();
  const ErrorBudget out = compute_error_budget(in);
  EXPECT_DOUBLE_EQ(out.symbol_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(out.bit_error_rate, 0.0);
}

TEST(ErrorModel, JitterDominatesWhenSlotsNarrow) {
  ErrorBudgetInputs in;
  in.pulse_detection_probability = 1.0;
  in.noise_rate = Frequency::hertz(0.0);
  in.afterpulse_probability = 0.0;
  in.slot_width = Time::picoseconds(100.0);
  in.timing_sigma = Time::picoseconds(100.0);
  const ErrorBudget out = compute_error_budget(in);
  // P(|N(0,100ps)| > 50ps) = 2 Q(0.5) ~ 0.617.
  EXPECT_NEAR(out.p_jitter, 2.0 * q_function(0.5), 1e-9);
  EXPECT_NEAR(out.symbol_error_rate, out.p_jitter, 1e-9);
}

TEST(ErrorModel, CaptureGrowsWithWindowAndNoise) {
  ErrorBudgetInputs in;
  in.noise_rate = Frequency::megahertz(1.0);
  in.toa_window = Time::nanoseconds(30.0);
  const double small = compute_error_budget(in).p_capture;
  in.toa_window = Time::nanoseconds(300.0);
  const double large = compute_error_budget(in).p_capture;
  EXPECT_GT(large, small);
}

TEST(ErrorModel, RejectsBadInputs) {
  ErrorBudgetInputs in;
  in.slot_width = Time::zero();
  EXPECT_THROW((void)compute_error_budget(in), std::invalid_argument);
  in = ErrorBudgetInputs{};
  in.bits_per_symbol = 0;
  EXPECT_THROW((void)compute_error_budget(in), std::invalid_argument);
}

// ---------- Monte Carlo optical link ----------

OpticalLinkConfig clean_link_config() {
  OpticalLinkConfig c;
  c.design = TdcDesign{64, 4, Time::picoseconds(52.0)};  // DC ~ 53 ns >= 40 ns dead
  c.bits_per_symbol = 5;                                 // wide slots: ~1.7 ns
  c.channel_transmittance = 0.5;
  c.led.peak_power = Power::microwatts(50.0);  // huge photon budget
  c.spad.dcr_at_ref = Frequency::hertz(100.0);
  c.spad.afterpulse_probability = 0.005;
  c.calibration_samples = 100000;
  return c;
}

TEST(OpticalLink, ConstructionDerivesGeometry) {
  RngStream rng(301);
  const OpticalLink link(clean_link_config(), rng);
  EXPECT_EQ(link.bits_per_symbol(), 5u);
  EXPECT_NEAR(link.toa_window().nanoseconds(), 16 * 64 * 0.052, 1e-9);
  // Auto guard: dead (40 ns) minus Rf (64 x 52 ps) appended to MW.
  const double rf_ns = 64 * 0.052;
  EXPECT_NEAR(link.guard().nanoseconds(), 40.0 - rf_ns, 1e-9);
  EXPECT_NEAR(link.symbol_period().nanoseconds(), 17 * rf_ns + (40.0 - rf_ns), 1e-9);
  EXPECT_NEAR(link.ppm().config().slot_width.nanoseconds(), 16 * rf_ns / 32, 1e-9);
  EXPECT_NEAR(link.analytic_throughput().bits_per_second(), 10.0 / (17 * 64 * 52e-12), 1.0);
}

TEST(OpticalLink, ExplicitZeroGuardGivesPaperWindows) {
  auto cfg = clean_link_config();
  cfg.inter_symbol_guard = Time::zero();
  RngStream rng(302);
  const OpticalLink link(cfg, rng);
  EXPECT_DOUBLE_EQ(link.guard().seconds(), 0.0);
  EXPECT_NEAR(link.symbol_period().nanoseconds(), 17 * 64 * 0.052, 1e-9);
}

TEST(OpticalLink, AutoGuardClampsToZeroForFastSpads) {
  // Auto-compute branch, other side: when the SPAD recovers within one
  // fine range Rf, the worst-case inter-pulse gap already covers the
  // dead time and the computed guard must clamp to zero, not go
  // negative.
  auto cfg = clean_link_config();
  cfg.spad.dead_time = Time::nanoseconds(2.0);  // < Rf = 64 x 52 ps ~ 3.33 ns
  RngStream rng(305);
  const OpticalLink link(cfg, rng);
  EXPECT_DOUBLE_EQ(link.guard().seconds(), 0.0);
  EXPECT_NEAR(link.symbol_period().nanoseconds(), 17 * 64 * 0.052, 1e-9);
}

TEST(OpticalLink, ExplicitPositiveGuardIsRespectedVerbatim) {
  // An explicit non-negative guard bypasses the auto-compute entirely,
  // even when it is smaller than what the auto rule would pick.
  auto cfg = clean_link_config();
  cfg.inter_symbol_guard = Time::nanoseconds(3.0);
  RngStream rng(306);
  const OpticalLink link(cfg, rng);
  EXPECT_NEAR(link.guard().nanoseconds(), 3.0, 1e-12);
  EXPECT_NEAR(link.symbol_period().nanoseconds(), 17 * 64 * 0.052 + 3.0, 1e-9);
}

TEST(OpticalLink, PaperExactWindowsSufferInterSymbolErasures) {
  // Without the guard, random data leaves the SPAD blind for early
  // pulses after late ones: the paper's DC >= dead rule alone is not
  // sufficient for back-to-back symbols.
  auto cfg = clean_link_config();
  cfg.inter_symbol_guard = Time::zero();
  RngStream rng(303);
  const OpticalLink link(cfg, rng);
  RngStream tx(304);
  const auto stats = link.measure(4000, tx);
  // Statistical form of "SER > 10%": inter-symbol erasures hit roughly
  // every window whose pulse follows a late one, far above 10%.
  EXPECT_RATE_GT(stats.symbol_errors + stats.erasures, stats.symbols_sent, 0.10, 1e-6);
  // The guard eliminates exactly this failure mode (see
  // MeasureLowErrorOnCleanChannel, which uses the auto guard).
}

TEST(OpticalLink, CleanChannelRoundTripsSymbols) {
  RngStream rng(307);
  const OpticalLink link(clean_link_config(), rng);
  std::vector<std::uint64_t> symbols{0, 1, 31, 17, 5, 30, 2, 9, 16, 8};
  RngStream tx(311);
  const auto result = link.transmit(symbols, tx);
  EXPECT_EQ(result.decoded, symbols);
  EXPECT_EQ(result.stats.symbols_sent, symbols.size());
  EXPECT_EQ(result.stats.symbol_errors + result.stats.erasures, 0u);
  EXPECT_EQ(result.stats.total_bits, symbols.size() * 5);
}

TEST(OpticalLink, MeasureLowErrorOnCleanChannel) {
  RngStream rng(313);
  const OpticalLink link(clean_link_config(), rng);
  RngStream tx(317);
  const auto stats = link.measure(2000, tx);
  EXPECT_EQ(stats.symbols_sent, 2000u);
  // Wilson-interval form of "SER < 1%": a handful of unlucky windows in
  // 2000 symbols no longer flakes the suite, a real rate regression does.
  EXPECT_RATE_LT(stats.symbol_errors + stats.erasures, stats.symbols_sent, 0.01, 1e-6);
  EXPECT_GT(stats.raw_throughput().megabits_per_second(), 40.0);
}

TEST(OpticalLink, ZeroTransmittanceAllErasures) {
  auto cfg = clean_link_config();
  cfg.channel_transmittance = 0.0;
  cfg.spad.dcr_at_ref = Frequency::hertz(0.0);
  RngStream rng(331);
  const OpticalLink link(cfg, rng);
  RngStream tx(337);
  const auto stats = link.measure(200, tx);
  EXPECT_EQ(stats.erasures, 200u);
  EXPECT_DOUBLE_EQ(stats.symbol_error_rate(), 1.0);
}

TEST(OpticalLink, NarrowSlotsDegradeWithJitter) {
  auto cfg = clean_link_config();
  cfg.spad.jitter_sigma = Time::picoseconds(300.0);
  cfg.bits_per_symbol = 0;  // full resolution: slot = 1 LSB = 52 ps << jitter
  RngStream rng(347);
  const OpticalLink link(cfg, rng);
  RngStream tx(349);
  const auto stats = link.measure(500, tx);
  EXPECT_RATE_GT(stats.symbol_errors + stats.erasures, stats.symbols_sent, 0.5, 1e-6);
}

TEST(OpticalLink, EnergyAccounting) {
  RngStream rng(353);
  const auto cfg = clean_link_config();
  const OpticalLink link(cfg, rng);
  RngStream tx(359);
  const auto stats = link.measure(100, tx);
  const double expected_tx = link.led().electrical_pulse_energy().joules() * 100;
  EXPECT_NEAR(stats.tx_energy.joules(), expected_tx, expected_tx * 1e-9);
  EXPECT_NEAR(stats.rx_energy.joules(), cfg.rx_energy_per_conversion.joules() * 100, 1e-18);
  EXPECT_GT(stats.energy_per_bit().joules(), 0.0);
}

TEST(OpticalLink, FrameRoundTrip) {
  RngStream rng(367);
  const OpticalLink link(clean_link_config(), rng);
  oci::modulation::Frame f;
  f.payload = {'h', 'e', 'l', 'l', 'o', ' ', 'o', 'p', 't', 'i', 'c', 's'};
  RngStream tx(373);
  const auto result = link.transmit_frame(f, tx);
  ASSERT_TRUE(result.frame.has_value());
  EXPECT_EQ(result.frame->payload, f.payload);
}

TEST(OpticalLink, BitsPerSymbolCannotExceedResolution) {
  auto cfg = clean_link_config();
  cfg.bits_per_symbol = 11;  // log2(64) + 4 = 10 available
  RngStream rng(379);
  EXPECT_THROW(OpticalLink(cfg, rng), std::invalid_argument);
}

TEST(OpticalLink, StatsRatesConsistent) {
  LinkRunStats s;
  s.symbols_sent = 100;
  s.symbol_errors = 5;
  s.erasures = 5;
  s.total_bits = 500;
  s.bit_errors = 25;
  s.elapsed = Time::microseconds(1.0);
  EXPECT_DOUBLE_EQ(s.symbol_error_rate(), 0.10);
  EXPECT_DOUBLE_EQ(s.bit_error_rate(), 0.05);
  EXPECT_DOUBLE_EQ(s.raw_throughput().megabits_per_second(), 500.0);
  EXPECT_DOUBLE_EQ(s.goodput().megabits_per_second(), 475.0);
}

TEST(OpticalLink, DeterministicGivenSeeds) {
  const auto cfg = clean_link_config();
  RngStream rng1(383), rng2(383);
  const OpticalLink a(cfg, rng1), b(cfg, rng2);
  RngStream tx1(389), tx2(389);
  const auto sa = a.measure(300, tx1);
  const auto sb = b.measure(300, tx2);
  EXPECT_EQ(sa.symbol_errors, sb.symbol_errors);
  EXPECT_EQ(sa.erasures, sb.erasures);
  EXPECT_EQ(sa.bit_errors, sb.bit_errors);
}

// ---------- calibration controller ----------

oci::tdc::Tdc controller_tdc(std::uint64_t seed) {
  RngStream rng(seed);
  oci::tdc::DelayLineParams lp;
  lp.elements = 104;
  lp.nominal_delay = Time::picoseconds(52.0);
  lp.mismatch_sigma = 0.10;
  oci::tdc::DelayLine line(lp, rng);
  oci::tdc::TdcConfig tc;
  tc.coarse_bits = 3;
  tc.clock_period = Time::nanoseconds(4.8);
  return oci::tdc::Tdc(std::move(line), tc);
}

TEST(CalibrationController, RecalibratesOnDrift) {
  auto tdc = controller_tdc(397);
  CalibrationPolicy policy;
  policy.max_temperature_drift_c = 5.0;
  policy.samples = 50000;
  CalibrationController ctl(tdc, policy);

  RngStream cal(401);
  EXPECT_TRUE(ctl.maybe_recalibrate(Time::zero(), cal));  // first call always runs
  EXPECT_EQ(ctl.calibrations_run(), 1u);

  tdc.set_conditions(Temperature::celsius(22.0));
  EXPECT_FALSE(ctl.maybe_recalibrate(Time::milliseconds(10.0), cal));

  tdc.set_conditions(Temperature::celsius(45.0));
  EXPECT_TRUE(ctl.maybe_recalibrate(Time::milliseconds(20.0), cal));
  EXPECT_EQ(ctl.calibrations_run(), 2u);
  EXPECT_NEAR(ctl.calibrated_at().celsius(), 45.0, 1e-9);
}

TEST(CalibrationController, MinIntervalSuppressesRuns) {
  auto tdc = controller_tdc(409);
  CalibrationPolicy policy;
  policy.samples = 20000;
  CalibrationController ctl(tdc, policy);
  RngStream cal(419);
  ctl.calibrate_now(Time::zero(), cal);
  tdc.set_conditions(Temperature::celsius(80.0));
  EXPECT_FALSE(ctl.maybe_recalibrate(Time::microseconds(10.0), cal));
  EXPECT_TRUE(ctl.maybe_recalibrate(Time::milliseconds(2.0), cal));
}

TEST(CalibrationController, StaleLutHasWorseResidual) {
  auto tdc = controller_tdc(421);
  CalibrationPolicy policy;
  policy.samples = 200000;
  CalibrationController ctl(tdc, policy);
  RngStream cal(431);
  ctl.calibrate_now(Time::zero(), cal);
  RngStream probe(433);
  const double fresh = oci::tdc::residual_rms_s(tdc, ctl.lut(), 3000, probe);

  // Heat the line 40 C without recalibrating: the stale LUT mis-scales.
  tdc.set_conditions(Temperature::celsius(60.0));
  RngStream probe2(439);
  const double stale = oci::tdc::residual_rms_s(tdc, ctl.lut(), 3000, probe2);
  EXPECT_GT(stale, fresh * 1.5);
}

// ---------- channel array ----------

link::ChannelArrayConfig array_config() {
  link::ChannelArrayConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.crosstalk.decay_length = Length::micrometres(25.0);
  return c;
}

TEST(ChannelArray, CrosstalkDropsWithPitch) {
  const auto cfg = array_config();
  const auto tight = link::evaluate_pitch(cfg, Length::micrometres(30.0));
  const auto loose = link::evaluate_pitch(cfg, Length::micrometres(200.0));
  EXPECT_GT(tight.p_crosstalk_capture, loose.p_crosstalk_capture);
  EXPECT_LT(loose.p_crosstalk_capture, 0.01);
}

TEST(ChannelArray, DensityFloorsAtEndpointSize) {
  const auto cfg = array_config();
  const auto a = link::evaluate_pitch(cfg, Length::micrometres(10.0));
  const auto b = link::evaluate_pitch(cfg, Length::micrometres(40.0));
  // Pitch below the endpoint side cannot pack tighter.
  EXPECT_DOUBLE_EQ(a.channels_per_mm, b.channels_per_mm);
}

TEST(ChannelArray, BestPitchIsInterior) {
  const auto cfg = array_config();
  const auto best =
      link::best_pitch(cfg, Length::micrometres(20.0), Length::micrometres(500.0), 64);
  // The optimum balances crosstalk against density: away from both ends.
  EXPECT_GT(best.pitch.micrometres(), 25.0);
  EXPECT_LT(best.pitch.micrometres(), 400.0);
  EXPECT_GT(best.bandwidth_density_gbps_mm, 0.0);
}

TEST(ChannelArray, RejectsBadInputs) {
  const auto cfg = array_config();
  EXPECT_THROW((void)link::evaluate_pitch(cfg, Length::metres(0.0)), std::invalid_argument);
  EXPECT_THROW((void)link::best_pitch(cfg, Length::micrometres(100.0),
                                      Length::micrometres(50.0), 8),
               std::invalid_argument);
}

// ---------- FEC link ----------

link::OpticalLinkConfig fec_link_config() {
  link::OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 8;  // narrow slots: jitter flips occasional bits
  c.channel_transmittance = 0.8;
  c.led.peak_power = util::Power::microwatts(50.0);
  // 120 ps sigma against a 208 ps slot: ~30% of symbols spill one slot
  // (single Gray bit, SECDED-correctable) while <1% spill two (frame
  // drop), so FEC transfers mostly succeed with corrections > 0.
  c.spad.jitter_sigma = Time::picoseconds(120.0);
  c.spad.dcr_at_ref = Frequency::hertz(0.0);
  c.spad.afterpulse_probability = 0.0;
  c.calibration_samples = 100000;
  return c;
}

TEST(FecLink, CleanChannelRoundTrip) {
  auto cfg = fec_link_config();
  cfg.spad.jitter_sigma = Time::zero();
  cfg.bits_per_symbol = 5;
  RngStream rng(839);
  const link::OpticalLink link(cfg, rng);
  const link::FecLink fec(link);
  RngStream tx(841);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 250, 251, 252};
  const auto r = fec.transfer(payload, tx);
  ASSERT_TRUE(r.payload.has_value());
  EXPECT_EQ(*r.payload, payload);
  EXPECT_EQ(r.corrections, 0u);
}

TEST(FecLink, CorrectsJitterFlips) {
  // On a jittery narrow-slot link, plain CRC framing loses frames that
  // FEC delivers (with corrections > 0 over many transfers).
  RngStream rng(853);
  const link::OpticalLink link(fec_link_config(), rng);
  const link::FecLink fec(link);

  RngStream tx(857);
  std::size_t fec_ok = 0, fec_corrections = 0;
  const std::vector<std::uint8_t> payload{'f', 'e', 'c', '-', 'd', 'a', 't', 'a'};
  const int transfers = 60;
  for (int i = 0; i < transfers; ++i) {
    const auto r = fec.transfer(payload, tx);
    if (r.payload && *r.payload == payload) {
      ++fec_ok;
      fec_corrections += r.corrections;
    }
  }
  EXPECT_GT(fec_ok, transfers / 2);
  EXPECT_GT(fec_corrections, 0u);  // it actually corrected something
}

TEST(FecLink, NeverDeliversCorruptPayload) {
  // Even on a terrible channel, a delivered payload must be intact
  // (CRC-8 after FEC): corruption -> nullopt, not wrong bytes.
  auto cfg = fec_link_config();
  cfg.spad.jitter_sigma = Time::picoseconds(600.0);  // catastrophic
  RngStream rng(859);
  const link::OpticalLink link(cfg, rng);
  const link::FecLink fec(link);
  RngStream tx(863);
  const std::vector<std::uint8_t> payload{9, 8, 7, 6, 5};
  for (int i = 0; i < 40; ++i) {
    const auto r = fec.transfer(payload, tx);
    if (r.payload) { EXPECT_EQ(*r.payload, payload); }
  }
}

TEST(FecLink, SymbolAccounting) {
  RngStream rng(877);
  const link::OpticalLink link(fec_link_config(), rng);
  const link::FecLink fec(link);
  // 8 payload bytes + 1 CRC = 9 bytes -> 18 coded bytes = 144 bits ->
  // 18 symbols at 8 bits/symbol.
  RngStream tx(881);
  const auto r = fec.transfer(std::vector<std::uint8_t>(8, 0xAA), tx);
  EXPECT_EQ(r.stats.symbols_sent, 18u);
}

// ---------- paper trade-off identities over the whole grid ----------

class TradeoffIdentity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(TradeoffIdentity, MwEqualsDcPlusRf) {
  const auto [n, cbits] = GetParam();
  const link::TdcDesign d{n, cbits, Time::picoseconds(52.0)};
  EXPECT_NEAR(link::measurement_window(d).seconds(),
              (link::detection_cycle(d) + link::fine_range(d)).seconds(), 1e-18);
}

TEST_P(TradeoffIdentity, ThroughputIsBitsOverMw) {
  const auto [n, cbits] = GetParam();
  const link::TdcDesign d{n, cbits, Time::picoseconds(52.0)};
  EXPECT_NEAR(link::throughput(d).bits_per_second(),
              link::bits_per_sample(d) / link::measurement_window(d).seconds(), 1e-3);
}

TEST_P(TradeoffIdentity, DcDoublesPerCoarseBit) {
  const auto [n, cbits] = GetParam();
  const link::TdcDesign d{n, cbits, Time::picoseconds(52.0)};
  const link::TdcDesign d1{n, cbits + 1, Time::picoseconds(52.0)};
  EXPECT_NEAR(link::detection_cycle(d1).seconds(),
              2.0 * link::detection_cycle(d).seconds(), 1e-18);
}

INSTANTIATE_TEST_SUITE_P(Grid, TradeoffIdentity,
                         ::testing::Combine(::testing::Values(std::uint64_t{8},
                                                              std::uint64_t{16},
                                                              std::uint64_t{64},
                                                              std::uint64_t{96},
                                                              std::uint64_t{256}),
                                            ::testing::Values(0u, 1u, 3u, 5u, 8u)));

// ---------- link SER monotone in photon budget ----------

class LinkPhotonBudget : public ::testing::TestWithParam<double> {};

TEST_P(LinkPhotonBudget, ErasureRateMatchesPoissonMiss) {
  const double transmittance = GetParam();
  link::OpticalLinkConfig cfg;
  cfg.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  cfg.bits_per_symbol = 4;
  cfg.channel_transmittance = transmittance;
  cfg.led.peak_power = util::Power::nanowatts(40.0);  // starved link
  cfg.spad.dcr_at_ref = Frequency::hertz(0.0);
  cfg.spad.afterpulse_probability = 0.0;
  cfg.calibrate = false;

  RngStream rng(601);
  const link::OpticalLink link(cfg, rng);
  RngStream tx(607);
  const auto stats = link.measure(3000, tx);
  const double mu = link.led().photons_per_pulse() * transmittance;
  const double expected_miss = std::exp(-mu * link.detector().pdp());
  const double measured =
      static_cast<double>(stats.erasures) / static_cast<double>(stats.symbols_sent);
  EXPECT_NEAR(measured, expected_miss, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Budgets, LinkPhotonBudget,
                         ::testing::Values(0.02, 0.05, 0.1, 0.3, 0.8));

}  // namespace
