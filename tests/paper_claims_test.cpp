// Paper-claims regression suite: each test pins one quantitative or
// qualitative statement from Favi & Charbon (DAC 2008) to the framework
// so the reproduction cannot silently drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/stat_assert.hpp"

#include "oci/electrical/pad.hpp"
#include "oci/util/samplers.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/link/tradeoff.hpp"
#include "oci/modulation/ook.hpp"
#include "oci/photonics/silicon.hpp"
#include "oci/spad/pdp.hpp"
#include "oci/tdc/calibration.hpp"

namespace {

using namespace oci;
using link::TdcDesign;
using util::RngStream;
using util::Time;
using util::Wavelength;

// "The system clock for our proof-of-concept is 200MHz. The fine chain
// must hence cover at least 5ns."
TEST(PaperClaims, ProofOfConceptClockGeometry) {
  EXPECT_DOUBLE_EQ(util::Frequency::megahertz(200.0).period().nanoseconds(), 5.0);
  // "a chain of 96 elements was sufficient to cover this time window
  // with a maximum of 93 elements used at 20 C"
  tdc::DelayLineParams p;
  p.elements = 96;
  p.nominal_delay = Time::picoseconds(53.8);  // 5 ns / 93 used
  p.mismatch_sigma = 0.0;
  RngStream rng(1);
  const tdc::DelayLine line(p, rng);
  EXPECT_TRUE(line.covers(Time::nanoseconds(5.0)));
  EXPECT_EQ(line.elements_used(Time::nanoseconds(5.0)), 93u);
}

// "The INL was below 1 LSB." -- after code-density measurement on the
// Figure 3 configuration (odd/even sawtooth + moderate mismatch).
TEST(PaperClaims, InlBelowOneLsb) {
  tdc::DelayLineParams p;
  p.elements = 96;
  p.nominal_delay = Time::picoseconds(53.8);
  p.mismatch_sigma = 0.06;
  p.odd_even_skew = 0.35;
  RngStream rng(20080608, "fig3-process");
  tdc::DelayLine line(p, rng);
  tdc::TdcConfig cfg;
  cfg.coarse_bits = 0;
  cfg.clock_period = Time::nanoseconds(5.0);
  const tdc::Tdc tdc(std::move(line), cfg);
  RngStream hits(20080608, "fig3-hits");
  const auto rep = tdc::code_density_test(tdc, 500000, hits);
  EXPECT_LT(rep.max_abs_inl, 1.0);
  EXPECT_LE(rep.max_abs_dnl, 1.0);
}

// "MW(N,C)=(2C+1)Nd", "TP(N,C) = (log2(N)+C)/MW(N,C)",
// "DC(N,C)=(2C)Nd" -- the three equations verbatim.
TEST(PaperClaims, EquationsVerbatim) {
  const Time d = Time::picoseconds(52.0);
  for (std::uint64_t n : {8ull, 64ull, 96ull, 512ull}) {
    for (unsigned c : {0u, 3u, 8u}) {
      const TdcDesign design{n, c, d};
      const double nd = static_cast<double>(n) * d.seconds();
      const double pow2c = static_cast<double>(1ull << c);
      EXPECT_NEAR(link::measurement_window(design).seconds(), (pow2c + 1.0) * nd, 1e-18);
      EXPECT_NEAR(link::detection_cycle(design).seconds(), pow2c * nd, 1e-18);
      EXPECT_NEAR(link::throughput(design).bits_per_second(),
                  (std::floor(std::log2(static_cast<double>(n))) + c) /
                      ((pow2c + 1.0) * nd),
                  1e-3);
    }
  }
}

// "Note that R should be higher than the detection cycle to ensure
// proper operation of the communication link."
TEST(PaperClaims, RangeExceedsDetectionCycleEverywhere) {
  for (const auto& p :
       link::sweep(Time::picoseconds(52.0), Time::nanoseconds(40.0), 8, 512, 0, 8)) {
    EXPECT_GT(p.mw.seconds(), p.dc.seconds());
  }
}

// "In SPADs the detection cycle can be as high as a few tens of
// nanoseconds. Thus, a simple digital modulation scheme must be added
// to achieve throughputs of several gigabit-per-second." -- PPM beats
// the 1-bit-per-cycle OOK ceiling by the bits-per-sample factor.
TEST(PaperClaims, PpmMultipliesDeadTimeLimitedRate) {
  // The realised multiplier is bits-per-sample degraded by (a) the
  // reset Rf (MW/DC = 1 + 2^-C) and (b) the power-of-two granularity
  // of DC against the dead time (worst case just under 2x overshoot).
  // bits/2 is therefore the guaranteed floor over any dead time.
  const Time dead = Time::nanoseconds(40.0);
  const auto ook = modulation::ook_dead_time_limited_rate(dead);
  const auto best = link::best_design(Time::picoseconds(52.0), dead, 8, 512, 0, 8);
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(best->bits, 7.0);
  EXPECT_GT(best->tp.bits_per_second(), ook.bits_per_second() * (best->bits / 2.0));

  // When the dead time packs tightly onto the grid (53 ns ~ 1024 x
  // 52 ps) the multiplier approaches the full bits-per-sample factor.
  const Time tight = Time::nanoseconds(53.0);
  const auto ook_tight = modulation::ook_dead_time_limited_rate(tight);
  const auto best_tight =
      link::best_design(Time::picoseconds(52.0), tight, 8, 512, 0, 8);
  ASSERT_TRUE(best_tight.has_value());
  EXPECT_GT(best_tight->tp.bits_per_second(),
            ook_tight.bits_per_second() * (best_tight->bits - 1.0));
}

// "utilizing a fraction of the area and power of a pad"
TEST(PaperClaims, FractionOfPadAreaAndPower) {
  const electrical::WireBondPad pad{electrical::WireBondPadParams{}};
  const spad::SpadParams spad_p;
  const photonics::MicroLedParams led_p;
  const double pad_area = pad.params().pad_area.square_micrometres();
  EXPECT_LT(spad_p.footprint.square_micrometres() + led_p.footprint.square_micrometres(),
            pad_area);

  // Power: optical TX energy/bit far below the pad's CV^2 energy/bit.
  const photonics::MicroLed led(led_p);
  const TdcDesign design{64, 4, Time::picoseconds(52.0)};
  const double optical_epb =
      led.electrical_pulse_energy().joules() / link::bits_per_sample(design);
  EXPECT_LT(optical_epb, pad.energy_per_bit().joules());
}

// "The device can detect very low photon fluxes, thus ensuring minimal
// requirements of optical power at the source." -- 99% detection with
// tens of photons at the detector.
TEST(PaperClaims, FewPhotonsSuffice) {
  const spad::Spad det(spad::SpadParams{}, Wavelength::nanometres(480.0));
  EXPECT_LT(det.required_mean_photons(0.99), 20.0);
}

// Monte-Carlo form of the same claim, asserted statistically: pulses
// delivering the analytic "99% budget" of photons must be detected at a
// rate consistent with 0.99 under a Wilson interval, not under a brittle
// hard threshold.
TEST(PaperClaims, FewPhotonsSufficeMonteCarlo) {
  spad::SpadParams params;
  params.dcr_at_ref = util::Frequency::hertz(0.0);  // isolate the photon statistics
  params.afterpulse_probability = 0.0;
  const spad::Spad det(params, Wavelength::nanometres(480.0));
  const double budget = det.required_mean_photons(0.99);

  RngStream rng(20080608, "few-photons-mc");
  const util::PoissonSampler photon_count(budget);
  const Time window = Time::nanoseconds(200.0);
  constexpr std::uint64_t kPulses = 4000;
  std::uint64_t detected = 0;
  std::vector<photonics::PhotonArrival> photons;
  for (std::uint64_t i = 0; i < kPulses; ++i) {
    const auto n = photon_count.sample(rng);
    photons.clear();
    for (std::int64_t k = 0; k < n; ++k) {
      photons.push_back({rng.uniform_time(Time::nanoseconds(1.0)), true});
    }
    std::sort(photons.begin(), photons.end(),
              [](const auto& a, const auto& b) { return a.time < b.time; });
    if (!det.detect(photons, Time::zero(), window, rng).empty()) ++detected;
  }
  EXPECT_RATE_NEAR(detected, kPulses, 0.99, 1e-4);
}

// "Optical transmission is ensured by low absorption coefficients of
// silicon" -- through THINNED dies; the same budget fails for full-
// thickness wafers, which is exactly why the paper thins the stack.
TEST(PaperClaims, ThinningIsEssential) {
  const Wavelength nir = Wavelength::nanometres(850.0);
  const double thin = photonics::transmittance_si(nir, util::Length::micrometres(50.0));
  const double full = photonics::transmittance_si(nir, util::Length::micrometres(700.0));
  EXPECT_GT(thin, 0.05);   // a 50 um die passes a usable fraction
  EXPECT_LT(full, 1e-14);  // a 700 um wafer does not
}

// "thanks to its digital output it requires no amplification, no A/D
// conversion" -- structurally true in our receiver: detections feed the
// TDC directly. Pin the data-path type: Detection -> TdcReading.
TEST(PaperClaims, DigitalReceiverPath) {
  RngStream rng(7);
  tdc::DelayLineParams lp;
  lp.elements = 104;
  tdc::DelayLine line(lp, rng);
  tdc::TdcConfig cfg;
  cfg.clock_period = Time::nanoseconds(4.8);
  const tdc::Tdc tdc(std::move(line), cfg);
  const spad::Spad det(spad::SpadParams{}, Wavelength::nanometres(480.0));
  RngStream sim(11);
  std::vector<photonics::PhotonArrival> photons{{Time::nanoseconds(10.0), true}};
  const auto dets = det.detect(photons, Time::zero(), Time::nanoseconds(76.8), sim);
  if (!dets.empty()) {
    const auto reading = tdc.convert(dets.front().time, sim);
    EXPECT_LE(reading.code, (8ull << 3) * 104);  // a plain integer code
  }
}

// "could service hundreds of thinned stacked dies" -- with NIR light,
// generous source power and relay-free budget the reach is large; we
// verify the scaling machinery supports deep stacks and that reach
// grows with wavelength (the paper's "low absorption" lever).
TEST(PaperClaims, DeepStackMachinery) {
  photonics::DieSpec die;
  die.thickness = util::Length::micrometres(20.0);  // aggressive thinning
  die.interface_coupling = 0.95;
  const auto stack = photonics::DieStack::uniform(200, die);
  const std::size_t reach_nir = stack.max_reach(Wavelength::nanometres(1050.0), 1e-6);
  const std::size_t reach_red = stack.max_reach(Wavelength::nanometres(650.0), 1e-6);
  EXPECT_GT(reach_nir, 100u);  // hundreds of dies at the band edge
  EXPECT_GT(reach_nir, reach_red);
}

}  // namespace
