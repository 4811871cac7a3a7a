// Unit tests for oci::photonics -- silicon optics, LED, die stack,
// photon statistics, waveguides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "oci/photonics/die_stack.hpp"
#include "oci/photonics/led.hpp"
#include "oci/photonics/photon_stream.hpp"
#include "oci/photonics/silicon.hpp"
#include "oci/photonics/waveguide.hpp"
#include "oci/util/statistics.hpp"

namespace {

using namespace oci;
using namespace oci::photonics;
using oci::util::Energy;
using oci::util::Frequency;
using oci::util::Length;
using oci::util::Power;
using oci::util::RngStream;
using oci::util::RunningStats;
using oci::util::Time;
using oci::util::Wavelength;

// ---------- silicon ----------

TEST(Silicon, AbsorptionDecreasesWithWavelength) {
  double prev = absorption_coefficient_si(Wavelength::nanometres(400.0));
  for (double nm = 450.0; nm <= 1100.0; nm += 50.0) {
    const double a = absorption_coefficient_si(Wavelength::nanometres(nm));
    EXPECT_LT(a, prev) << "at " << nm << " nm";
    prev = a;
  }
}

TEST(Silicon, KnownPenetrationDepths) {
  // The 1/e depth is 1/alpha [m]; in micrometres, 1e6/alpha.
  const auto depth_um = [](double nm) {
    return 1e6 / absorption_coefficient_si(Wavelength::nanometres(nm));
  };
  // 850 nm: alpha ~ 535 /cm -> ~18.7 um penetration.
  EXPECT_NEAR(depth_um(850.0), 18.7, 1.0);
  // 450 nm: alpha ~ 2.55e4 /cm -> ~0.39 um.
  EXPECT_NEAR(depth_um(450.0), 0.392, 0.02);
}

TEST(Silicon, TableEndpointsClamp) {
  const double at_350 = absorption_coefficient_si(Wavelength::nanometres(350.0));
  EXPECT_NEAR(absorption_coefficient_si(Wavelength::nanometres(200.0)), at_350,
              at_350 * 1e-9);
  const double at_1100 = absorption_coefficient_si(Wavelength::nanometres(1100.0));
  EXPECT_NEAR(absorption_coefficient_si(Wavelength::nanometres(1500.0)), at_1100,
              at_1100 * 1e-9);
}

TEST(Silicon, BeerLambertComposition) {
  // T(d1 + d2) == T(d1) * T(d2): absorption composes multiplicatively.
  const Wavelength wl = Wavelength::nanometres(850.0);
  const double t1 = transmittance_si(wl, Length::micrometres(30.0));
  const double t2 = transmittance_si(wl, Length::micrometres(20.0));
  const double t12 = transmittance_si(wl, Length::micrometres(50.0));
  EXPECT_NEAR(t12, t1 * t2, 1e-12);
}

TEST(Silicon, TransmittanceBounds) {
  const Wavelength wl = Wavelength::nanometres(650.0);
  EXPECT_DOUBLE_EQ(transmittance_si(wl, Length::metres(0.0)), 1.0);
  const double t = transmittance_si(wl, Length::micrometres(100.0));
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
}

TEST(Silicon, RefractiveIndexReasonable) {
  const double n = refractive_index_si(Wavelength::nanometres(850.0));
  EXPECT_GT(n, 3.3);
  EXPECT_LT(n, 4.5);
  // Dispersion: higher index at shorter wavelength.
  EXPECT_GT(refractive_index_si(Wavelength::nanometres(450.0)), n);
}

// ---------- LED ----------

MicroLedParams default_led() {
  MicroLedParams p;
  p.peak_power = Power::microwatts(50.0);
  p.pulse_width = Time::picoseconds(300.0);
  return p;
}

TEST(MicroLed, PulseEnergyIsPeakTimesWidth) {
  const MicroLed led(default_led());
  EXPECT_NEAR(led.optical_pulse_energy().femtojoules(), 50e-6 * 300e-12 * 1e15, 1e-6);
}

TEST(MicroLed, ElectricalEnergyIncludesDriverAndWallPlug) {
  MicroLedParams p = default_led();
  p.wall_plug_efficiency = 0.05;
  const MicroLed led(p);
  const double emission_j = led.optical_pulse_energy().joules() / 0.05;
  const double driver_j = p.driver_load.farads() * p.supply.volts() * p.supply.volts();
  EXPECT_NEAR(led.electrical_pulse_energy().joules(), emission_j + driver_j, 1e-18);
}

TEST(MicroLed, PhotonsPerPulseMatchesPlanck) {
  const MicroLed led(default_led());
  const double e_photon = 6.62607015e-34 * 2.99792458e8 / 450e-9;
  EXPECT_NEAR(led.photons_per_pulse(),
              led.optical_pulse_energy().joules() / e_photon, 1.0);
  EXPECT_GT(led.photons_per_pulse(), 1e4);
}

TEST(MicroLed, RejectsBadParams) {
  MicroLedParams p = default_led();
  p.pulse_width = Time::zero();
  EXPECT_THROW(MicroLed{p}, std::invalid_argument);
  p = default_led();
  p.wall_plug_efficiency = 0.0;
  EXPECT_THROW(MicroLed{p}, std::invalid_argument);
  p = default_led();
  p.wall_plug_efficiency = 1.5;
  EXPECT_THROW(MicroLed{p}, std::invalid_argument);
}

TEST(MicroLed, RectangularSamplingUniform) {
  const MicroLed led(default_led());
  EXPECT_DOUBLE_EQ(led.sample_emission_time(0.0).picoseconds(), 0.0);
  EXPECT_NEAR(led.sample_emission_time(0.5).picoseconds(), 150.0, 1e-9);
}

// ---------- die stack ----------

DieSpec thin_die() {
  DieSpec d;
  d.thickness = Length::micrometres(50.0);
  d.interface_coupling = 0.85;
  return d;
}

TEST(DieStack, SelfTransmittanceIsUnity) {
  const DieStack stack = DieStack::uniform(4, thin_die());
  EXPECT_DOUBLE_EQ(stack.transmittance(2, 2, Wavelength::nanometres(850.0)), 1.0);
}

TEST(DieStack, SymmetricUpDown) {
  const DieStack stack = DieStack::uniform(6, thin_die());
  const Wavelength wl = Wavelength::nanometres(850.0);
  EXPECT_DOUBLE_EQ(stack.transmittance(0, 4, wl), stack.transmittance(4, 0, wl));
}

TEST(DieStack, SiliconPathExcludesEndpointDies) {
  const DieStack stack = DieStack::uniform(5, thin_die());
  // Adjacent dies: no bulk silicon between them.
  EXPECT_DOUBLE_EQ(stack.silicon_path(0, 1).micrometres(), 0.0);
  // Two dies apart: one intermediate die's thickness.
  EXPECT_DOUBLE_EQ(stack.silicon_path(0, 2).micrometres(), 50.0);
  EXPECT_DOUBLE_EQ(stack.silicon_path(0, 4).micrometres(), 150.0);
}

TEST(DieStack, TransmittanceDecaysWithDistance) {
  const DieStack stack = DieStack::uniform(8, thin_die());
  const Wavelength wl = Wavelength::nanometres(850.0);
  double prev = 1.0;
  for (std::size_t to = 1; to < 8; ++to) {
    const double t = stack.transmittance(0, to, wl);
    EXPECT_LT(t, prev) << "to die " << to;
    prev = t;
  }
}

TEST(DieStack, AdjacentDieIsCouplingOnly) {
  const DieStack stack = DieStack::uniform(3, thin_die());
  EXPECT_NEAR(stack.transmittance(0, 1, Wavelength::nanometres(850.0)), 0.85, 1e-12);
}

TEST(DieStack, RedderLightReachesFarther) {
  const DieStack stack = DieStack::uniform(8, thin_die());
  EXPECT_GT(stack.transmittance(0, 4, Wavelength::nanometres(1050.0)),
            stack.transmittance(0, 4, Wavelength::nanometres(650.0)));
}

TEST(DieStack, MaxReach) {
  const DieStack stack = DieStack::uniform(16, thin_die());
  const std::size_t reach_ir = stack.max_reach(Wavelength::nanometres(1050.0), 1e-3);
  const std::size_t reach_blue = stack.max_reach(Wavelength::nanometres(450.0), 1e-3);
  EXPECT_GT(reach_ir, reach_blue);
}

TEST(DieStack, RejectsBadSpecs) {
  DieSpec bad = thin_die();
  bad.thickness = Length::metres(0.0);
  EXPECT_THROW(DieStack::uniform(2, bad), std::invalid_argument);
  bad = thin_die();
  bad.interface_coupling = 0.0;
  EXPECT_THROW(DieStack::uniform(2, bad), std::invalid_argument);
  bad.interface_coupling = 1.2;
  EXPECT_THROW(DieStack::uniform(2, bad), std::invalid_argument);
  EXPECT_THROW(DieStack({}), std::invalid_argument);
}

TEST(DieStack, IndexOutOfRangeThrows) {
  const DieStack stack = DieStack::uniform(3, thin_die());
  EXPECT_THROW((void)stack.transmittance(0, 5, Wavelength::nanometres(850.0)), std::out_of_range);
  EXPECT_THROW((void)stack.silicon_path(5, 0), std::out_of_range);
}

TEST(Crosstalk, DecaysWithPitch) {
  CrosstalkModel x;
  EXPECT_DOUBLE_EQ(x.fraction_at(Length::metres(0.0)), 1.0);
  const double neighbour = x.fraction_at(x.pitch);
  EXPECT_GT(neighbour, 0.0);
  EXPECT_LT(neighbour, 0.05);  // 100 um pitch, 25 um decay
  EXPECT_LT(x.fraction_at(Length::micrometres(200.0)), neighbour);
}

// ---------- photon stream ----------

TEST(PhotonStream, RejectsTransmittanceOutsideUnitInterval) {
  const MicroLed led(default_led());
  EXPECT_THROW(PhotonStream(led, 1.5), std::invalid_argument);
  EXPECT_THROW(PhotonStream(led, -0.1), std::invalid_argument);
  EXPECT_THROW(PhotonStream(led, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(PhotonStream, PulseSamplesInsideEnvelopeAndSorted) {
  MicroLedParams p = default_led();
  p.peak_power = Power::nanowatts(500.0);  // keep the count small
  const MicroLed led(p);
  const PhotonStream stream(led, 1.0);
  RngStream rng(211);
  const Time start = Time::nanoseconds(100.0);
  const auto photons = stream.sample_pulse(start, rng);
  for (std::size_t i = 0; i < photons.size(); ++i) {
    EXPECT_GE(photons[i].time.seconds(), start.seconds());
    EXPECT_LE(photons[i].time.seconds(), (start + p.pulse_width).seconds() + 1e-15);
    EXPECT_TRUE(photons[i].is_signal);
    if (i > 0) { EXPECT_GE(photons[i].time.seconds(), photons[i - 1].time.seconds()); }
  }
}

TEST(PhotonStream, PoissonCountStatistics) {
  MicroLedParams p = default_led();
  p.peak_power = Power::nanowatts(100.0);
  const MicroLed led(p);
  const PhotonStream stream(led, 1.0);
  const double mu = led.photons_per_pulse();
  RngStream rng(223);
  RunningStats s;
  for (int i = 0; i < 5000; ++i) {
    s.add(static_cast<double>(stream.sample_pulse(Time::zero(), rng).size()));
  }
  EXPECT_NEAR(s.mean(), mu, 0.1 * mu + 0.1);
  // Poisson: variance ~ mean.
  EXPECT_NEAR(s.variance(), mu, 0.2 * mu + 0.2);
}

TEST(PhotonStream, BackgroundRate) {
  RngStream rng(227);
  RunningStats s;
  const Frequency rate = Frequency::megahertz(10.0);
  const Time window = Time::microseconds(10.0);
  for (int i = 0; i < 500; ++i) {
    const auto bg = PhotonStream::sample_background(rate, Time::zero(), window, rng);
    s.add(static_cast<double>(bg.size()));
    for (const auto& ph : bg) EXPECT_FALSE(ph.is_signal);
  }
  EXPECT_NEAR(s.mean(), 100.0, 2.0);  // 10 MHz x 10 us
}

TEST(PhotonStream, BackgroundZeroRateEmpty) {
  RngStream rng(229);
  EXPECT_TRUE(PhotonStream::sample_background(Frequency::hertz(0.0), Time::zero(),
                                              Time::microseconds(1.0), rng)
                  .empty());
}

TEST(PhotonStream, MergeKeepsOrder) {
  std::vector<PhotonArrival> a{{Time::nanoseconds(1.0), true}, {Time::nanoseconds(5.0), true}};
  std::vector<PhotonArrival> b{{Time::nanoseconds(3.0), false}};
  const auto merged = PhotonStream::merge(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[0].time.nanoseconds(), 1.0);
  EXPECT_DOUBLE_EQ(merged[1].time.nanoseconds(), 3.0);
  EXPECT_FALSE(merged[1].is_signal);
  EXPECT_DOUBLE_EQ(merged[2].time.nanoseconds(), 5.0);
}

TEST(PhotonStream, MergeStealsBufferWhenOneSideEmpty) {
  std::vector<PhotonArrival> a{{Time::nanoseconds(1.0), true}, {Time::nanoseconds(2.0), true}};
  a.reserve(64);
  const PhotonArrival* data = a.data();
  // Non-empty side moves through untouched: same buffer, no copy.
  auto merged = PhotonStream::merge(std::move(a), {});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.data(), data);
  const PhotonArrival* data2 = merged.data();
  auto merged2 = PhotonStream::merge({}, std::move(merged));
  ASSERT_EQ(merged2.size(), 2u);
  EXPECT_EQ(merged2.data(), data2);
}

TEST(PhotonStream, MergeBackwardInPlaceMatchesStdMerge) {
  // Adversarial interleavings, including ties and one side exhausting
  // first, must reproduce std::merge exactly (a-before-b on ties).
  RngStream rng(233);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PhotonArrival> a, b;
    const int na = static_cast<int>(rng.uniform_int(0, 12));
    const int nb = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < na; ++i) {
      a.push_back({Time::nanoseconds(rng.uniform_int(0, 5) * 1.0), true});
    }
    for (int i = 0; i < nb; ++i) {
      b.push_back({Time::nanoseconds(rng.uniform_int(0, 5) * 1.0), false});
    }
    const auto by_time = [](const PhotonArrival& x, const PhotonArrival& y) {
      return x.time < y.time;
    };
    std::sort(a.begin(), a.end(), by_time);
    std::sort(b.begin(), b.end(), by_time);
    std::vector<PhotonArrival> expected(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin(), by_time);

    const auto merged = PhotonStream::merge(a, b);
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_DOUBLE_EQ(merged[i].time.seconds(), expected[i].time.seconds());
      EXPECT_EQ(merged[i].is_signal, expected[i].is_signal);
    }
  }
}

// ---------- waveguide ----------

photonics::WaveguideParams wg_params() {
  photonics::WaveguideParams p;
  p.propagation_loss_db_per_cm = 1.0;
  p.bend_loss_db = 0.1;
  p.coupling_loss_db = 1.5;
  p.splitter_excess_db = 0.3;
  return p;
}

TEST(Waveguide, DbHelpers) {
  EXPECT_NEAR(photonics::db_to_linear(3.0103), 0.5, 1e-4);
  EXPECT_NEAR(photonics::db_to_linear(10.0), 0.1, 1e-12);
}

TEST(Waveguide, LossBudgetAddsUp) {
  const photonics::Waveguide wg(wg_params());
  // 2 cm route, 4 bends: 2*1.0 + 4*0.1 + 2*1.5 = 5.4 dB.
  EXPECT_NEAR(wg.loss_db(Length::metres(0.02), 4), 5.4, 1e-9);
  EXPECT_NEAR(wg.transmittance(Length::metres(0.02), 4),
              photonics::db_to_linear(5.4), 1e-12);
}

TEST(Waveguide, SplitterTreeHalvesPerStage) {
  const photonics::Waveguide wg(wg_params());
  const double t0 = wg.split_transmittance(Length::metres(0.01), 0);
  const double t1 = wg.split_transmittance(Length::metres(0.01), 1);
  // One stage: 3.01 dB split + 0.3 dB excess ~ factor 0.467.
  EXPECT_NEAR(t1 / t0, photonics::db_to_linear(3.0103 + 0.3), 1e-6);
}

TEST(Waveguide, CentimetreScaleReach) {
  // With 1 dB/cm, a 10% budget (10 dB) reaches ~7 cm after interface
  // losses -- comfortably across any die. The paper's intra-chip claim.
  const photonics::Waveguide wg(wg_params());
  EXPECT_GT(wg.transmittance(Length::metres(0.05)), 0.1);
}

TEST(Waveguide, RejectsNegativeLoss) {
  auto p = wg_params();
  p.propagation_loss_db_per_cm = -1.0;
  EXPECT_THROW(photonics::Waveguide{p}, std::invalid_argument);
}

// ---------- Beer-Lambert composition across wavelengths ----------

class BeerLambert : public ::testing::TestWithParam<double> {};

TEST_P(BeerLambert, ComposesAndIsMonotone) {
  const Wavelength wl = Wavelength::nanometres(GetParam());
  const double t10 = photonics::transmittance_si(wl, Length::micrometres(10.0));
  const double t20 = photonics::transmittance_si(wl, Length::micrometres(20.0));
  const double t30 = photonics::transmittance_si(wl, Length::micrometres(30.0));
  EXPECT_NEAR(t30, t10 * t20, 1e-12);
  EXPECT_LE(t30, t20);
  EXPECT_LE(t20, t10);
  EXPECT_GT(t10, 0.0);
  EXPECT_LE(t10, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Wavelengths, BeerLambert,
                         ::testing::Values(400.0, 520.0, 650.0, 850.0, 1000.0, 1100.0));

}  // namespace
