// Tests for the disciplined local clock (optical sync loop), including
// its bounded error over random oscillators.
#include <gtest/gtest.h>

#include "oci/bus/clock_sync.hpp"
#include "oci/util/random.hpp"

using namespace oci;
using bus::DisciplinedClock;
using bus::LocalClockParams;
using bus::SyncLoopParams;
using util::RngStream;
using util::Time;

LocalClockParams default_clock() {
  LocalClockParams c;
  c.nominal = util::Frequency::megahertz(200.0);
  c.frequency_error_ppm = 40.0;
  c.cycle_jitter_rms = Time::picoseconds(2.0);
  return c;
}

TEST(DisciplinedClock, ValidatesParameters) {
  auto c = default_clock();
  SyncLoopParams l;
  c.nominal = util::Frequency::hertz(0.0);
  EXPECT_THROW(DisciplinedClock(c, l), std::invalid_argument);
  c = default_clock();
  l.sync_interval_cycles = 0;
  EXPECT_THROW(DisciplinedClock(c, l), std::invalid_argument);
  l = SyncLoopParams{};
  l.proportional_gain = 2.5;
  EXPECT_THROW(DisciplinedClock(c, l), std::invalid_argument);
  l = SyncLoopParams{};
  l.detection_probability = 0.0;
  EXPECT_THROW(DisciplinedClock(c, l), std::invalid_argument);
}

TEST(DisciplinedClock, FreeRunningDriftGrowsLinearly) {
  // 40 ppm at 5 ns/cycle = 0.2 ps/cycle: after 100k cycles the phase
  // error reaches ~20 ns and max |error| tracks the last edge.
  auto c = default_clock();
  c.cycle_jitter_rms = Time::zero();
  const DisciplinedClock clk(c, SyncLoopParams{});
  RngStream rng(311);
  const auto r = clk.run_free(100000, rng);
  EXPECT_NEAR(r.max_abs_phase_error.nanoseconds(), 20.0, 0.5);
}

TEST(DisciplinedClock, LoopBoundsThePhaseError) {
  const DisciplinedClock clk(default_clock(), SyncLoopParams{});
  RngStream rng(313);
  const auto disciplined = clk.run(200000, rng, /*settle=*/5000);
  RngStream rng2(313);
  const auto free = clk.run_free(200000, rng2);
  // Free-running: tens of nanoseconds of drift and growing.
  // Disciplined: bounded well below a nanosecond.
  EXPECT_LT(disciplined.rms_phase_error.nanoseconds(), 1.0);
  EXPECT_GT(free.max_abs_phase_error.nanoseconds(),
            100.0 * disciplined.max_abs_phase_error.nanoseconds());
}

TEST(DisciplinedClock, IntegralTermLearnsTheFrequencyError) {
  auto c = default_clock();
  c.frequency_error_ppm = 75.0;
  // A quiet detector isolates the integral term's convergence; with a
  // noisy detector the frequency state fluctuates around the target
  // with a variance set by the measurement noise (by design).
  SyncLoopParams l;
  l.detector_jitter_rms = Time::picoseconds(5.0);
  const DisciplinedClock clk(c, l);
  RngStream rng(317);
  const auto r = clk.run(300000, rng, 10000);
  // The learned per-cycle correction cancels the oscillator's +75 ppm.
  EXPECT_NEAR(r.learned_correction_ppm, -75.0, 5.0);
}

TEST(DisciplinedClock, ResidualGrowsWithSyncInterval) {
  double prev_rms = 0.0;
  for (const std::uint64_t interval : {16ull, 64ull, 256ull, 1024ull}) {
    SyncLoopParams l;
    l.sync_interval_cycles = interval;
    const DisciplinedClock clk(default_clock(), l);
    RngStream rng(331);
    const auto r = clk.run(200000, rng, 20000);
    EXPECT_GT(r.rms_phase_error.seconds(), prev_rms)
        << "interval " << interval;
    prev_rms = r.rms_phase_error.seconds();
  }
}

TEST(DisciplinedClock, MissedSyncPulsesDegradeGracefully) {
  SyncLoopParams reliable;
  SyncLoopParams flaky;
  flaky.detection_probability = 0.5;
  const DisciplinedClock good(default_clock(), reliable);
  const DisciplinedClock bad(default_clock(), flaky);
  RngStream rng1(337), rng2(337);
  const auto good_run = good.run(200000, rng1, 10000);
  const auto bad_run = bad.run(200000, rng2, 10000);
  EXPECT_GT(bad_run.syncs_missed, 1000u);
  // Still locked (bounded), just noisier.
  EXPECT_GT(bad_run.rms_phase_error.seconds(), good_run.rms_phase_error.seconds());
  EXPECT_LT(bad_run.rms_phase_error.nanoseconds(), 5.0);
}

TEST(DisciplinedClock, SyncAccountingAddsUp) {
  SyncLoopParams l;
  l.sync_interval_cycles = 100;
  const DisciplinedClock clk(default_clock(), l);
  RngStream rng(347);
  const auto r = clk.run(100000, rng);
  EXPECT_EQ(r.syncs_received + r.syncs_missed, 1000u);
}

TEST(DisciplinedClock, PerfectOscillatorNeedsNoCorrection) {
  auto c = default_clock();
  c.frequency_error_ppm = 0.0;
  c.cycle_jitter_rms = Time::zero();
  SyncLoopParams l;
  l.detector_jitter_rms = Time::zero();
  const DisciplinedClock clk(c, l);
  RngStream rng(349);
  const auto r = clk.run(50000, rng);
  EXPECT_EQ(r.rms_phase_error.seconds(), 0.0);
  EXPECT_NEAR(r.learned_correction_ppm, 0.0, 1e-9);
}

// ---------- clock-sync boundedness ----------

class ClockSyncSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClockSyncSweep, DisciplinedErrorStaysBoundedForRandomOscillators) {
  RngStream param_rng(431 + GetParam());
  bus::LocalClockParams c;
  c.frequency_error_ppm = param_rng.uniform(-100.0, 100.0);
  c.cycle_jitter_rms = Time::picoseconds(param_rng.uniform(0.0, 5.0));
  bus::SyncLoopParams l;
  l.sync_interval_cycles = static_cast<std::uint64_t>(param_rng.uniform_int(8, 512));
  const bus::DisciplinedClock clk(c, l);
  RngStream rng(433 + GetParam());
  const auto r = clk.run(100000, rng, 10000);
  // Whatever the oscillator, the loop holds the error under one 200 MHz
  // cycle (5 ns) -- far below the unbounded free-running drift.
  EXPECT_LT(r.max_abs_phase_error.nanoseconds(), 5.0)
      << "ppm " << c.frequency_error_ppm << " interval " << l.sync_interval_cycles;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockSyncSweep, ::testing::Range<std::uint64_t>(0, 10),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });
