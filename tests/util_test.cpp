// Unit tests for oci::util -- units, RNG streams, statistics, tables.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "oci/util/batch_rng.hpp"
#include "oci/util/math.hpp"
#include "oci/util/random.hpp"
#include "oci/util/samplers.hpp"
#include "oci/util/statistics.hpp"
#include "oci/util/table.hpp"
#include "oci/util/units.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci::util;

// ---------- units ----------

TEST(Units, TimeFactoriesRoundTrip) {
  EXPECT_DOUBLE_EQ(Time::nanoseconds(5.0).seconds(), 5e-9);
  EXPECT_DOUBLE_EQ(Time::picoseconds(52.0).nanoseconds(), 0.052);
  EXPECT_DOUBLE_EQ(Time::microseconds(1.0).picoseconds(), 1e6);
  EXPECT_DOUBLE_EQ(Time::milliseconds(2.0).seconds(), 2e-3);
}

TEST(Units, TimeArithmetic) {
  const Time a = Time::nanoseconds(3.0);
  const Time b = Time::nanoseconds(2.0);
  EXPECT_DOUBLE_EQ((a + b).nanoseconds(), 5.0);
  EXPECT_DOUBLE_EQ((a - b).nanoseconds(), 1.0);
  EXPECT_DOUBLE_EQ((a * 2.0).nanoseconds(), 6.0);
  EXPECT_DOUBLE_EQ((a / 2.0).nanoseconds(), 1.5);
  EXPECT_DOUBLE_EQ(a / b, 1.5);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, Time::nanoseconds(3.0));
}

TEST(Units, TimeCompoundAssignment) {
  Time t = Time::nanoseconds(1.0);
  t += Time::nanoseconds(2.0);
  EXPECT_DOUBLE_EQ(t.nanoseconds(), 3.0);
  t -= Time::nanoseconds(0.5);
  EXPECT_DOUBLE_EQ(t.nanoseconds(), 2.5);
  t *= 4.0;
  EXPECT_DOUBLE_EQ(t.nanoseconds(), 10.0);
}

TEST(Units, FrequencyPeriodInverse) {
  const Frequency f = Frequency::megahertz(200.0);
  EXPECT_DOUBLE_EQ(f.period().nanoseconds(), 5.0);
  EXPECT_DOUBLE_EQ(inverse(Time::nanoseconds(5.0)).megahertz(), 200.0);
}

TEST(Units, EnergyPowerTimeRelations) {
  const Power p = Power::milliwatts(2.0);
  const Time t = Time::nanoseconds(10.0);
  const Energy e = p * t;
  EXPECT_DOUBLE_EQ(e.picojoules(), 20.0);
  EXPECT_DOUBLE_EQ((e / t).milliwatts(), 2.0);
  EXPECT_DOUBLE_EQ((e / p).nanoseconds(), 10.0);
}

TEST(Units, SwitchingEnergyCV2) {
  const Energy e = switching_energy(Capacitance::picofarads(2.0), Voltage::volts(1.2));
  EXPECT_NEAR(e.picojoules(), 2.0 * 1.2 * 1.2, 1e-12);
}

TEST(Units, PhotonEnergyVisible) {
  // 450 nm photon: E = hc/lambda ~ 4.414e-19 J.
  const Energy e = photon_energy(Wavelength::nanometres(450.0));
  EXPECT_NEAR(e.joules(), 4.414e-19, 5e-22);
}

TEST(Units, PhotonCountScalesWithEnergy) {
  const Wavelength wl = Wavelength::nanometres(450.0);
  const double n1 = photon_count(Energy::femtojoules(15.0), wl);
  const double n2 = photon_count(Energy::femtojoules(30.0), wl);
  EXPECT_NEAR(n2 / n1, 2.0, 1e-12);
  EXPECT_GT(n1, 1.0e4);  // 15 fJ of blue light is tens of thousands of photons
}

TEST(Units, TemperatureCelsiusKelvin) {
  EXPECT_DOUBLE_EQ(Temperature::celsius(20.0).kelvin(), 293.15);
  EXPECT_NEAR(Temperature::kelvin(300.0).celsius(), 26.85, 1e-9);
}

TEST(Units, BitRateConversions) {
  EXPECT_DOUBLE_EQ(BitRate::gigabits_per_second(2.5).bits_per_second(), 2.5e9);
  EXPECT_DOUBLE_EQ(bits_over(10.0, Time::nanoseconds(5.0)).gigabits_per_second(), 2.0);
}

TEST(Units, WavelengthDistinctFromLength) {
  static_assert(!std::is_same_v<Wavelength, Length>);
  EXPECT_DOUBLE_EQ(Wavelength::nanometres(850.0).micrometres(), 0.85);
}

// ---------- math ----------

TEST(MathHelpers, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(96));
}

TEST(MathHelpers, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(96), 6u);  // floor(log2 96)
  EXPECT_EQ(ilog2(128), 7u);
  EXPECT_THROW((void)ilog2(0), std::invalid_argument);
}

TEST(MathHelpers, BitsFor) {
  EXPECT_EQ(bits_for(1), 0u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
}

TEST(MathHelpers, GrayCodeRoundTrip) {
  for (std::uint64_t v = 0; v < 1024; ++v) {
    EXPECT_EQ(from_gray(to_gray(v)), v);
  }
}

TEST(MathHelpers, GrayAdjacencyProperty) {
  // Consecutive values differ in exactly one bit of their Gray code.
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::uint64_t diff = to_gray(v) ^ to_gray(v + 1);
    EXPECT_EQ(std::popcount(diff), 1) << "at v=" << v;
  }
}

// ---------- random ----------

TEST(Random, Deterministic) {
  RngStream a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Random, LabelledStreamsDiffer) {
  RngStream a(42, "spad"), b(42, "tdc");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, DeriveSeedDependsOnLabel) {
  EXPECT_NE(derive_seed(1, "x"), derive_seed(1, "y"));
  EXPECT_NE(derive_seed(1, "x"), derive_seed(2, "x"));
  EXPECT_EQ(derive_seed(7, "abc"), derive_seed(7, "abc"));
}

TEST(Random, UniformRange) {
  RngStream rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Random, UniformIntInclusive) {
  RngStream rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, NormalMoments) {
  RngStream rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Random, NormalZeroSigmaReturnsMeanAndAdvancesLikeUnitSigma) {
  RngStream rng(29);
  RngStream twin(29);
  EXPECT_EQ(rng.normal(4.5, 0.0), 4.5);
  (void)twin.normal(4.5, 1.0);
  EXPECT_EQ(rng.draws(), twin.draws());
  EXPECT_EQ(rng.uniform(), twin.uniform());
}

TEST(Random, ExponentialMean) {
  RngStream rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential_mean(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Random, PoissonMean) {
  RngStream rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(6.5)));
  EXPECT_NEAR(s.mean(), 6.5, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Random, BernoulliEdges) {
  RngStream rng(19);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Random, BinomialDegenerateInputsLeaveEngineAlone) {
  RngStream rng(31);
  RngStream twin(31);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(1000, 0.0), 0u);
  EXPECT_EQ(rng.binomial(1000, -0.5), 0u);
  EXPECT_EQ(rng.binomial(1000, 1.0), 1000u);
  EXPECT_EQ(rng.binomial(1000, 1.5), 1000u);
  EXPECT_EQ(rng.draws(), 0u);
  EXPECT_EQ(rng.engine()(), twin.engine()());
}

TEST(Random, BinomialCountsOneDrawPerCall) {
  RngStream rng(37);
  for (const std::uint64_t n : {1ull, 5ull, 100ull, 1000000ull}) {
    const std::uint64_t before = rng.draws();
    EXPECT_LE(rng.binomial(n, 0.3), n);
    EXPECT_EQ(rng.draws(), before + 1);
  }
}

// Mean and variance z-checks on both libstdc++ regimes: the waiting-time
// method (n * min(p, 1-p) < 8) and the rejection method above it.
TEST(Random, BinomialMoments) {
  constexpr int kDraws = 40000;
  constexpr double kAlpha = 1e-4;
  RngStream rng(41);
  for (const auto& [n, p] : {std::pair<std::uint64_t, double>{10, 0.3}, {200, 0.02},
                             {100000, 0.01}, {100000, 0.97}}) {
    RunningStats s;
    for (int i = 0; i < kDraws; ++i) s.add(static_cast<double>(rng.binomial(n, p)));
    const double nd = static_cast<double>(n);
    const double var = nd * p * (1.0 - p);
    // Fourth central moment of Binomial(n, p), for the sample variance's
    // spread: n p q (1 + 3 (n - 2) p q).
    const double mu4 = var * (1.0 + 3.0 * (nd - 2.0) * p * (1.0 - p));
    const double k = kDraws;
    EXPECT_Z_NEAR(s.mean(), nd * p, std::sqrt(var / k), kAlpha) << "n=" << n << " p=" << p;
    EXPECT_Z_NEAR(s.variance(), var, std::sqrt((mu4 - var * var * (k - 3.0) / (k - 1.0)) / k),
                  kAlpha)
        << "n=" << n << " p=" << p;
  }
}

TEST(Random, TimeDraws) {
  RngStream rng(23);
  for (int i = 0; i < 1000; ++i) {
    const Time t = rng.uniform_time(Time::nanoseconds(5.0));
    EXPECT_GE(t.seconds(), 0.0);
    EXPECT_LT(t.nanoseconds(), 5.0);
  }
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(rng.exponential_time(Time::nanoseconds(50.0)).nanoseconds());
  }
  EXPECT_NEAR(s.mean(), 50.0, 1.5);
}

TEST(Random, ForkProducesIndependentStream) {
  RngStream a(42);
  RngStream child = a.fork("child");
  RngStream parent_copy(42);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.uniform() == parent_copy.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Random, LaneOffsetContinuesTheLaneStream) {
  const BatchRngStream lanes(77, "lanes");
  CounterRng whole = lanes.lane(5);
  for (int i = 0; i < 13; ++i) (void)whole.next_u64();
  CounterRng rest = lanes.lane(5, 13);
  EXPECT_EQ(rest.draws(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rest.next_u64(), whole.next_u64());
}

TEST(Random, SkipForkLeavesTheParentWhereForkDoes) {
  RngStream forked(42, "parent");
  RngStream skipped(42, "parent");
  (void)forked.uniform();
  (void)skipped.uniform();
  (void)forked.fork("unused");
  skipped.skip_fork();
  EXPECT_EQ(skipped.draws(), forked.draws());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(skipped.uniform(), forked.uniform());
  EXPECT_EQ(skipped.fork("next").engine()(), forked.fork("next").engine()());
}

// ---------- statistics ----------

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, RunningEmpty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, MergeMatchesBulk) {
  RngStream rng(29);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0.0, 1.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

// ---------- table ----------

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"name", "value"});
  t.new_row().add_cell("alpha").add_cell(1.5, 2);
  t.new_row().add_cell("beta").add_cell(std::uint64_t{42});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, MisuseThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add_cell("no row yet"), std::logic_error);
  t.new_row().add_cell("ok");
  EXPECT_THROW(t.add_cell("row full"), std::logic_error);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, SiFormat) {
  EXPECT_EQ(si_format(2.5e9, "bps", 1), "2.5 Gbps");
  EXPECT_EQ(si_format(5.0e-9, "s", 1), "5.0 ns");
  EXPECT_EQ(si_format(0.0, "W", 1), "0 W");
  EXPECT_EQ(si_format(-3.0e6, "Hz", 0), "-3 MHz");
}

// ---------- samplers ----------

TEST(Samplers, PoissonSamplerMatchesMomentsAcrossMeans) {
  for (const double mean : {0.3, 4.0, 60.0, 500.0}) {
    const PoissonSampler sampler(mean);
    EXPECT_TRUE(sampler.table_backed());
    RngStream rng(4242 + static_cast<std::uint64_t>(mean));
    RunningStats s;
    const int n = 40000;
    for (int i = 0; i < n; ++i) s.add(static_cast<double>(sampler.sample(rng)));
    // Poisson: mean == variance; tolerate ~5 sigma of sampling noise.
    const double tol = 5.0 * std::sqrt(mean / n);
    EXPECT_NEAR(s.mean(), mean, tol + 5e-2) << "mean " << mean;
    EXPECT_NEAR(s.variance(), mean, 6.0 * mean / std::sqrt(static_cast<double>(n)) + 0.1)
        << "mean " << mean;
  }
}

TEST(Samplers, PoissonSamplerEdgeCases) {
  const PoissonSampler zero;
  RngStream rng(77);
  EXPECT_EQ(zero.sample(rng), 0);
  EXPECT_FALSE(zero.table_backed());

  // Above the table limit: falls back to the generic draw but stays a
  // valid Poisson (spot-check the mean).
  const PoissonSampler big(5000.0);
  EXPECT_FALSE(big.table_backed());
  RunningStats s;
  for (int i = 0; i < 2000; ++i) s.add(static_cast<double>(big.sample(rng)));
  EXPECT_NEAR(s.mean(), 5000.0, 25.0);

  EXPECT_THROW(PoissonSampler(-1.0), std::invalid_argument);
}

TEST(Samplers, AscendingUniformStreamIsSortedAndMatchesSortedUniforms) {
  // The streamed order statistics must be ascending, in [0,1), and
  // distributed like sorting n uniforms: compare the mean of U_(1) of
  // n=8 against its analytic 1/(n+1).
  RngStream rng(991);
  RunningStats first_stat;
  for (int trial = 0; trial < 20000; ++trial) {
    AscendingUniformStream order(8);
    double prev = -1.0;
    const double first = order.next(rng);
    first_stat.add(first);
    prev = first;
    for (int k = 1; k < 8; ++k) {
      const double u = order.next(rng);
      ASSERT_GE(u, prev);
      ASSERT_LT(u, 1.0);
      prev = u;
    }
    EXPECT_EQ(order.remaining(), 0);
  }
  EXPECT_NEAR(first_stat.mean(), 1.0 / 9.0, 0.005);
}

TEST(Math, NormalQuantileKnownValues) {
  using oci::test::normal_quantile;
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-7);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-4);
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

}  // namespace
