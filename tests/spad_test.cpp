// Unit tests for the SPAD detector and the SPAD array, with the
// dead-time invariant swept over photon rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "oci/spad/array.hpp"
#include "oci/spad/pdp.hpp"
#include "oci/spad/spad.hpp"
#include "oci/util/statistics.hpp"

namespace {

using namespace oci;
using namespace oci::spad;
using oci::photonics::PhotonArrival;
using oci::util::Frequency;
using oci::util::RngStream;
using oci::util::RunningStats;
using oci::util::Temperature;
using oci::util::Time;
using oci::util::Wavelength;

SpadParams quiet_spad() {
  SpadParams p;
  p.dcr_at_ref = Frequency::hertz(0.0);
  p.afterpulse_probability = 0.0;
  p.jitter_sigma = Time::zero();
  return p;
}

// ---------- PDP ----------

TEST(Pdp, PeaksNearBlue) {
  const double peak = pdp_spectral_shape(Wavelength::nanometres(480.0));
  EXPECT_DOUBLE_EQ(peak, 1.0);
  EXPECT_LT(pdp_spectral_shape(Wavelength::nanometres(850.0)), 0.1);
  EXPECT_LT(pdp_spectral_shape(Wavelength::nanometres(350.0)), 0.1);
}

TEST(Pdp, AbsoluteScaleFromPeak) {
  SpadParams p;
  p.pdp_peak = 0.30;
  EXPECT_NEAR(pdp(p, Wavelength::nanometres(480.0)), 0.30, 1e-12);
  EXPECT_NEAR(pdp(p, Wavelength::nanometres(450.0)), 0.27, 1e-12);
}

TEST(Pdp, DcrDoublingLaw) {
  SpadParams p;
  p.dcr_at_ref = Frequency::hertz(350.0);
  p.dcr_ref_temperature = Temperature::celsius(25.0);
  p.dcr_doubling_kelvin = 8.0;
  EXPECT_NEAR(dark_count_rate(p, Temperature::celsius(25.0)).hertz(), 350.0, 1e-9);
  EXPECT_NEAR(dark_count_rate(p, Temperature::celsius(33.0)).hertz(), 700.0, 1e-6);
  EXPECT_NEAR(dark_count_rate(p, Temperature::celsius(17.0)).hertz(), 175.0, 1e-6);
}

// ---------- detection ----------

TEST(Spad, DetectsStrongPulseWithCertainty) {
  const Spad spad(quiet_spad(), Wavelength::nanometres(480.0));
  EXPECT_NEAR(spad.pdp(), 0.30, 1e-12);
  EXPECT_NEAR(spad.pulse_detection_probability(100.0), 1.0, 1e-9);
  EXPECT_NEAR(spad.pulse_detection_probability(0.0), 0.0, 1e-12);
}

TEST(Spad, RequiredMeanPhotonsInverts) {
  const Spad spad(quiet_spad(), Wavelength::nanometres(480.0));
  const double mu = spad.required_mean_photons(0.99);
  EXPECT_NEAR(spad.pulse_detection_probability(mu), 0.99, 1e-9);
  EXPECT_THROW((void)spad.required_mean_photons(1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(spad.required_mean_photons(0.0), 0.0);
}

TEST(Spad, PdpThinning) {
  const Spad spad(quiet_spad(), Wavelength::nanometres(480.0));
  RngStream rng(31);
  // 10000 well-separated photons: detections ~ Binomial(10000, 0.3).
  std::vector<PhotonArrival> photons;
  const Time gap = Time::nanoseconds(100.0);  // >> dead time
  for (int i = 0; i < 10000; ++i) {
    photons.push_back({gap * static_cast<double>(i), true});
  }
  const Time window = gap * 10000.0;
  const auto dets = spad.detect(photons, Time::zero(), window, rng);
  EXPECT_NEAR(static_cast<double>(dets.size()), 3000.0, 150.0);
  for (const auto& d : dets) EXPECT_EQ(d.cause, DetectionCause::kSignal);
}

TEST(Spad, NonParalyzableDeadTime) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;  // detect everything
  p.dead_time = Time::nanoseconds(40.0);
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(37);
  // Photons every 10 ns for 400 ns: only every 4th can fire.
  std::vector<PhotonArrival> photons;
  for (int i = 0; i < 40; ++i) {
    photons.push_back({Time::nanoseconds(10.0 * i), true});
  }
  const auto dets = spad.detect(photons, Time::zero(), Time::nanoseconds(400.0), rng);
  EXPECT_EQ(dets.size(), 10u);  // t=0,40,80,...,360
  for (std::size_t i = 1; i < dets.size(); ++i) {
    EXPECT_GE((dets[i].true_time - dets[i - 1].true_time).nanoseconds(), 40.0 - 1e-9);
  }
}

TEST(Spad, PoissonCountRateMatchesNonParalyzableLaw) {
  // Under Poisson arrivals at rate r, an active-quench detector with
  // dead time tau counts at R = r / (1 + r tau).
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;
  p.dead_time = Time::nanoseconds(40.0);
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(811);

  const Frequency incident = Frequency::megahertz(20.0);
  const Time window = Time::microseconds(200.0);
  std::vector<PhotonArrival> photons;
  const auto n = rng.poisson(incident.hertz() * window.seconds());
  for (std::int64_t i = 0; i < n; ++i) photons.push_back({rng.uniform_time(window), true});
  std::sort(photons.begin(), photons.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  const auto dets = spad.detect(photons, Time::zero(), window, rng);

  const double r = incident.hertz();
  const double predicted = r / (1.0 + r * p.dead_time.seconds()) * window.seconds();
  EXPECT_NEAR(static_cast<double>(dets.size()), predicted, predicted * 0.05);
}

TEST(Spad, DarkCountsAtExpectedRate) {
  SpadParams p = quiet_spad();
  p.dcr_at_ref = Frequency::kilohertz(100.0);
  const Spad spad(p, Wavelength::nanometres(480.0), Temperature::celsius(25.0));
  RngStream rng(43);
  RunningStats s;
  const Time window = Time::microseconds(100.0);
  for (int i = 0; i < 200; ++i) {
    const auto dets = spad.detect({}, Time::zero(), window, rng);
    s.add(static_cast<double>(dets.size()));
    for (const auto& d : dets) EXPECT_EQ(d.cause, DetectionCause::kDark);
  }
  // 100 kHz x 100 us = 10 expected (dead time shaves a touch off).
  EXPECT_NEAR(s.mean(), 10.0, 0.5);
}

TEST(Spad, DcrFollowsTemperature) {
  SpadParams p = quiet_spad();
  p.dcr_at_ref = Frequency::hertz(350.0);
  Spad spad(p, Wavelength::nanometres(480.0), Temperature::celsius(25.0));
  const double dcr_cold = spad.dcr().hertz();
  spad.set_temperature(Temperature::celsius(65.0));
  EXPECT_NEAR(spad.dcr().hertz() / dcr_cold, 32.0, 0.1);  // 5 doublings
}

TEST(Spad, AfterpulsesFollowDetections) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;
  p.afterpulse_probability = 0.5;  // exaggerated for test power
  p.afterpulse_tau = Time::nanoseconds(20.0);
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(47);
  std::size_t afterpulses = 0;
  std::size_t signals = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<PhotonArrival> photons{{Time::nanoseconds(1.0), true}};
    const auto dets = spad.detect(photons, Time::zero(), Time::microseconds(1.0), rng);
    for (const auto& d : dets) {
      if (d.cause == DetectionCause::kAfterpulse) {
        ++afterpulses;
        // Afterpulse cannot occur inside the dead time.
        EXPECT_GE(d.true_time.nanoseconds(), 1.0 + 40.0 - 1e-9);
      } else {
        ++signals;
      }
    }
  }
  EXPECT_EQ(signals, 500u);
  // Cascaded afterpulsing: expected count slightly above p/(1-p) = 1 per
  // 2 detections... with p=0.5 expect ~ signals * ~1.0 (geometric sum),
  // loosely bounded here.
  EXPECT_GT(afterpulses, 350u);
  EXPECT_LT(afterpulses, 700u);
}

TEST(Spad, JitterSpreadsTimestamps) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;
  p.jitter_sigma = Time::picoseconds(100.0);
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(53);
  RunningStats s;
  for (int i = 0; i < 3000; ++i) {
    std::vector<PhotonArrival> photons{{Time::nanoseconds(50.0), true}};
    const auto dets = spad.detect(photons, Time::zero(), Time::nanoseconds(100.0), rng);
    if (dets.empty()) continue;  // PDP=0.999 still misses ~0.1% of pulses
    s.add((dets[0].time - dets[0].true_time).picoseconds());
  }
  ASSERT_GT(s.count(), 2900u);
  EXPECT_NEAR(s.mean(), 0.0, 10.0);
  EXPECT_NEAR(s.stddev(), 100.0, 5.0);
}

TEST(Spad, InitiallyDeadUntilRespected) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(59);
  std::vector<PhotonArrival> photons{{Time::nanoseconds(5.0), true}};
  const auto dets = spad.detect(photons, Time::zero(), Time::nanoseconds(100.0), rng,
                                /*initially_dead_until=*/Time::nanoseconds(10.0));
  EXPECT_TRUE(dets.empty());
}

TEST(Spad, PhotonsOutsideWindowIgnored) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.999;
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(61);
  std::vector<PhotonArrival> photons{
      {Time::nanoseconds(-5.0), true},
      {Time::nanoseconds(150.0), true},
  };
  const auto dets = spad.detect(photons, Time::zero(), Time::nanoseconds(100.0), rng);
  EXPECT_TRUE(dets.empty());
}

// The dead_until carry couples consecutive windows exactly like one
// long window would.
TEST(Spad, DeadUntilCarriesAcrossConsecutiveWindows) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 1.0;  // every in-window photon is a candidate
  p.dead_time = Time::nanoseconds(40.0);
  const Spad det(p, Wavelength::nanometres(480.0));
  const Time window = Time::nanoseconds(50.0);

  RngStream rng(101);
  // Window 0: photon at 45 ns fires; blind until 85 ns.
  std::vector<PhotonArrival> w0{{Time::nanoseconds(45.0), true}};
  const auto d0 = det.detect(w0, Time::zero(), window, rng);
  ASSERT_EQ(d0.size(), 1u);
  const Time carried = d0.back().true_time + p.dead_time;

  // Window 1 [50, 100): a photon at 60 ns sits inside the carried
  // blind interval -> lost; one at 90 ns is past it -> detected.
  RngStream rng_carry(103), rng_fresh(103);
  std::vector<PhotonArrival> blind{{Time::nanoseconds(60.0), true}};
  EXPECT_TRUE(det.detect(blind, window, window, rng_carry, carried).empty());
  // The same photon fires when the previous window's avalanche is
  // (incorrectly) forgotten -- the carry is what suppresses it.
  EXPECT_EQ(det.detect(blind, window, window, rng_fresh).size(), 1u);

  std::vector<PhotonArrival> recovered{{Time::nanoseconds(90.0), true}};
  const auto past_carry = det.detect(recovered, window, window, rng_carry, carried);
  ASSERT_EQ(past_carry.size(), 1u);
  EXPECT_DOUBLE_EQ(past_carry.front().true_time.nanoseconds(), 90.0);
}

TEST(Spad, RejectsBadParams) {
  SpadParams p;
  p.dead_time = Time::zero();
  EXPECT_THROW(Spad(p, Wavelength::nanometres(480.0)), std::invalid_argument);
  p = SpadParams{};
  p.afterpulse_probability = 1.0;
  EXPECT_THROW(Spad(p, Wavelength::nanometres(480.0)), std::invalid_argument);
}

TEST(Spad, DetectionsSortedByTimestamp) {
  SpadParams p = quiet_spad();
  p.pdp_peak = 0.9;
  p.jitter_sigma = Time::picoseconds(200.0);
  const Spad spad(p, Wavelength::nanometres(480.0));
  RngStream rng(67);
  std::vector<PhotonArrival> photons;
  for (int i = 0; i < 50; ++i) photons.push_back({Time::nanoseconds(45.0 * i), true});
  const auto dets =
      spad.detect(photons, Time::zero(), Time::microseconds(3.0), rng);
  for (std::size_t i = 1; i < dets.size(); ++i) {
    EXPECT_LE(dets[i - 1].time.seconds(), dets[i].time.seconds());
  }
}

// ---------- SPAD array ----------

spad::SpadArrayParams quiet_array(std::size_t m, double pdp_peak = 0.999) {
  spad::SpadArrayParams p;
  p.diodes = m;
  p.fill_factor = 1.0;
  p.element.pdp_peak = pdp_peak;
  p.element.dcr_at_ref = util::Frequency::hertz(0.0);
  p.element.afterpulse_probability = 0.0;
  p.element.jitter_sigma = Time::zero();
  p.element.dead_time = Time::nanoseconds(40.0);
  return p;
}

TEST(SpadArray, EffectiveDeadTimeScalesInverse) {
  const spad::SpadArray arr(quiet_array(4), Wavelength::nanometres(480.0));
  EXPECT_DOUBLE_EQ(arr.effective_dead_time().nanoseconds(), 10.0);
}

TEST(SpadArray, FillFactorReducesPdp) {
  auto p = quiet_array(4);
  p.fill_factor = 0.5;
  const spad::SpadArray arr(p, Wavelength::nanometres(480.0));
  EXPECT_NEAR(arr.pdp(), 0.999 * 0.5, 1e-9);
}

TEST(SpadArray, SustainsHigherRateThanSingleDiode) {
  // Photons every 15 ns; a single 40 ns diode catches ~1/3, a 4-diode
  // array catches nearly all.
  const Wavelength wl = Wavelength::nanometres(480.0);
  const spad::SpadArray arr(quiet_array(4), wl);
  const spad::Spad single(quiet_array(1).element, wl);
  RngStream rng(701);

  std::vector<photonics::PhotonArrival> photons;
  for (int i = 0; i < 200; ++i) photons.push_back({Time::nanoseconds(15.0 * i), true});
  const Time window = Time::microseconds(3.01);

  std::vector<Time> dead(4, Time::zero());
  const auto array_dets = arr.detect(photons, Time::zero(), window, rng, dead);
  const auto single_dets = single.detect(photons, Time::zero(), window, rng);

  EXPECT_GT(array_dets.size(), single_dets.size() * 2);
  EXPECT_GT(array_dets.size(), 180u);  // nearly every photon lands on a live diode
}

TEST(SpadArray, MergedDetectionsSorted) {
  const spad::SpadArray arr(quiet_array(3), Wavelength::nanometres(480.0));
  RngStream rng(709);
  std::vector<photonics::PhotonArrival> photons;
  for (int i = 0; i < 100; ++i) photons.push_back({Time::nanoseconds(7.0 * i), true});
  std::vector<Time> dead(3, Time::zero());
  const auto dets = arr.detect(photons, Time::zero(), Time::microseconds(1.0), rng, dead);
  for (std::size_t i = 1; i < dets.size(); ++i) {
    EXPECT_LE(dets[i - 1].time.seconds(), dets[i].time.seconds());
  }
}

TEST(SpadArray, RejectsBadParams) {
  auto p = quiet_array(0);
  EXPECT_THROW(spad::SpadArray(p, Wavelength::nanometres(480.0)), std::invalid_argument);
  p = quiet_array(2);
  p.fill_factor = 0.0;
  EXPECT_THROW(spad::SpadArray(p, Wavelength::nanometres(480.0)), std::invalid_argument);
  const spad::SpadArray arr(quiet_array(2), Wavelength::nanometres(480.0));
  std::vector<Time> wrong_size(3, Time::zero());
  RngStream rng(719);
  EXPECT_THROW(arr.detect({}, Time::zero(), Time::microseconds(1.0), rng, wrong_size),
               std::invalid_argument);
}

TEST(SpadArray, DeadUntilVectorCarriesAcrossWindows) {
  // One diode: the array degenerates to a single SPAD and the
  // dead_until vector must behave exactly like the scalar carry. Every
  // in-window photon is a candidate (PDP 1).
  const spad::SpadArray arr(quiet_array(1, 1.0), Wavelength::nanometres(480.0));
  const Time window = Time::nanoseconds(50.0);
  RngStream rng(211);
  std::vector<Time> dead(1, Time::zero());

  std::vector<PhotonArrival> w0{{Time::nanoseconds(45.0), true}};
  const auto d0 = arr.detect(w0, Time::zero(), window, rng, dead);
  ASSERT_EQ(d0.size(), 1u);
  EXPECT_DOUBLE_EQ(dead[0].nanoseconds(), 85.0);  // 45 ns + 40 ns dead

  // Carried into window 1: the 60 ns photon is blind, the 90 ns fires.
  std::vector<PhotonArrival> w1{{Time::nanoseconds(60.0), true},
                                {Time::nanoseconds(90.0), true}};
  const auto d1 = arr.detect(w1, window, window, rng, dead);
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_DOUBLE_EQ(d1.front().true_time.nanoseconds(), 90.0);
  EXPECT_DOUBLE_EQ(dead[0].nanoseconds(), 130.0);

  // A second diode absorbs the blind photon instead: no loss.
  const spad::SpadArray pair(quiet_array(2, 1.0), Wavelength::nanometres(480.0));
  RngStream rng2(223);
  std::vector<Time> dead2(2, Time::zero());
  (void)pair.detect(w0, Time::zero(), window, rng2, dead2);
  const auto d1_pair = pair.detect(w1, window, window, rng2, dead2);
  EXPECT_EQ(d1_pair.size(), 2u);
}

// ---------- SPAD dead-time invariant across photon rates ----------

class SpadDeadTime : public ::testing::TestWithParam<double> {};

TEST_P(SpadDeadTime, NoTwoDetectionsCloserThanDeadTime) {
  const double photon_rate_mhz = GetParam();
  spad::SpadParams p;
  p.pdp_peak = 0.5;
  p.dcr_at_ref = Frequency::kilohertz(50.0);
  p.afterpulse_probability = 0.05;
  p.jitter_sigma = Time::zero();  // jitter reorders timestamps, not physics
  p.dead_time = Time::nanoseconds(40.0);
  const spad::Spad det(p, Wavelength::nanometres(480.0));

  RngStream rng(static_cast<std::uint64_t>(photon_rate_mhz * 1000) + 7);
  const Time window = Time::microseconds(50.0);
  std::vector<photonics::PhotonArrival> photons;
  const auto n = rng.poisson(photon_rate_mhz * 1e6 * window.seconds());
  for (std::int64_t i = 0; i < n; ++i) {
    photons.push_back({rng.uniform_time(window), true});
  }
  std::sort(photons.begin(), photons.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  const auto dets = det.detect(photons, Time::zero(), window, rng);
  for (std::size_t i = 1; i < dets.size(); ++i) {
    EXPECT_GE((dets[i].true_time - dets[i - 1].true_time).nanoseconds(), 40.0 - 1e-6)
        << "rate " << photon_rate_mhz << " MHz, detection " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SpadDeadTime,
                         ::testing::Values(0.1, 1.0, 5.0, 20.0, 50.0, 200.0));

}  // namespace
