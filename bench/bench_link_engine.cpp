// Microbenchmarks for the zero-allocation hot path: the util samplers,
// the fused TDC sample-and-decode, TDC conversion and code-density
// calibration, the LinkEngine symbol loop against the reference
// per-photon pipeline, and a calibrated link's construction. The binary writes the stable-schema
// BENCH_link.json trajectory document (see support/bench_json.hpp)
// that CI uploads and diffs across runs, so hot-path regressions show
// up as artifact diffs, not anecdotes.
#include <benchmark/benchmark.h>

#include <vector>

#include "support/bench_json.hpp"

#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/tdc/calibration.hpp"
#include "oci/tdc/tdc.hpp"
#include "oci/tdc/thermometer.hpp"
#include "oci/util/samplers.hpp"

namespace {

using namespace oci;
using util::RngStream;
using util::Time;

constexpr std::uint64_t kSeed = 20080608;

// ---------- samplers ----------

void BM_PoissonSamplerTable(benchmark::State& state) {
  const util::PoissonSampler sampler(static_cast<double>(state.range(0)));
  RngStream rng(kSeed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_PoissonSamplerTable)->Arg(2)->Arg(40)->Arg(800);

void BM_PoissonGenericRng(benchmark::State& state) {
  RngStream rng(kSeed);
  const auto mean = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(mean));
  }
}
BENCHMARK(BM_PoissonGenericRng)->Arg(2)->Arg(40)->Arg(800);

void BM_AscendingUniformStream(benchmark::State& state) {
  RngStream rng(kSeed);
  for (auto _ : state) {
    util::AscendingUniformStream order(100000);
    double last = 0.0;
    for (int i = 0; i < 64; ++i) last = order.next(rng);
    benchmark::DoNotOptimize(last);
  }
}
BENCHMARK(BM_AscendingUniformStream);

// ---------- fused TDC sample+decode ----------

tdc::DelayLine bench_line(double window_ps = 4.0) {
  tdc::DelayLineParams p;
  p.elements = 108;
  p.nominal_delay = Time::picoseconds(52.0);
  p.mismatch_sigma = 0.12;
  p.metastability_window = Time::picoseconds(window_ps);
  RngStream process(kSeed, "line");
  return tdc::DelayLine(p, process);
}

void BM_SampleAndDecodeFused(benchmark::State& state) {
  const tdc::DelayLine line = bench_line();
  RngStream rng(kSeed, "fused");
  const Time range = line.total_delay();
  for (auto _ : state) {
    const Time interval = rng.uniform_time(range);
    benchmark::DoNotOptimize(tdc::sample_and_decode(line, interval, rng));
  }
}
BENCHMARK(BM_SampleAndDecodeFused);

void BM_SampleAndDecodeMaterialised(benchmark::State& state) {
  const tdc::DelayLine line = bench_line();
  RngStream rng(kSeed, "naive");
  const Time range = line.total_delay();
  for (auto _ : state) {
    const Time interval = rng.uniform_time(range);
    benchmark::DoNotOptimize(tdc::decode_thermometer(line.sample(interval, rng)));
  }
}
BENCHMARK(BM_SampleAndDecodeMaterialised);

// ---------- TDC conversion and code-density calibration ----------

// The link_jitter device's TDC: bench_line() clocked at 96 x 52 ps with
// five coarse bits and majority decode, as OpticalLink configures it.
tdc::Tdc bench_tdc(double window_ps = 4.0) {
  tdc::TdcConfig cfg;
  cfg.coarse_bits = 5;
  cfg.clock_period = Time::picoseconds(52.0 * 96);
  return tdc::Tdc(bench_line(window_ps), cfg);
}

// One op = one uniform TOA drawn and converted on a line at `celsius`
// with a metastability half-window of `window_ps`.
void BM_TdcConvertAt(benchmark::State& state, double celsius, double window_ps) {
  tdc::Tdc tdc = bench_tdc(window_ps);
  tdc.set_conditions(util::Temperature::celsius(celsius));
  RngStream rng(kSeed, "bm-conv");
  for (auto _ : state) {
    const Time toa = rng.uniform_time(tdc.toa_window());
    benchmark::DoNotOptimize(tdc.convert(toa, rng).code);
  }
  state.counters["rng_draws"] = benchmark::Counter(static_cast<double>(rng.draws()),
                                                   benchmark::Counter::kAvgIterations);
}

void BM_TdcConvert(benchmark::State& state) { BM_TdcConvertAt(state, 20.0, 4.0); }
BENCHMARK(BM_TdcConvert);
// A hot line (its bucket table rebuilt at 85 C) and a 60 ps window,
// where two or three taps race per conversion and each draws a coin.
BENCHMARK_CAPTURE(BM_TdcConvertAt, hot_85C, 85.0, 4.0);
BENCHMARK_CAPTURE(BM_TdcConvertAt, window_60ps, 20.0, 60.0);

// One op = one OpticalLink construction's calibration histogram.
void BM_CodeDensityCalibration(benchmark::State& state) {
  const tdc::Tdc tdc = bench_tdc();
  RngStream rng(kSeed, "bm-cal");
  for (auto _ : state) {
    const auto rep =
        tdc::code_density_test(tdc, static_cast<std::uint64_t>(state.range(0)), rng);
    benchmark::DoNotOptimize(rep.max_abs_dnl);
  }
  state.counters["rng_draws"] = benchmark::Counter(static_cast<double>(rng.draws()),
                                                   benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CodeDensityCalibration)->Arg(100000);

// ---------- link symbol loop ----------

link::OpticalLinkConfig bench_link_config() {
  link::OpticalLinkConfig c;
  c.design = link::TdcDesign{64, 4, Time::picoseconds(52.0)};
  c.bits_per_symbol = 5;
  c.channel_transmittance = 0.5;
  c.led.peak_power = util::Power::microwatts(50.0);  // bright: worst case for the reference
  c.spad.dcr_at_ref = util::Frequency::hertz(100.0);
  c.calibrate = false;  // construction kept out of the timed region
  return c;
}

void BM_ReferenceSymbol(benchmark::State& state) {
  RngStream process(kSeed, "ref-link");
  const link::OpticalLink link(bench_link_config(), process);
  RngStream tx(kSeed, "ref-tx");
  link::LinkRunStats stats;
  Time dead_until = Time::zero();
  const std::uint64_t draws_before = tx.draws();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.transmit_symbol_reference(17, Time::zero(), dead_until, stats, tx, {}));
    dead_until = Time::zero();
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(tx.draws() - draws_before), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ReferenceSymbol);

// One op = one kEngineBatch-lane batch through the batched window
// kernel (the ScenarioRunner chunk shape); divide ns_per_op by
// windows_per_op to compare a window against BM_ReferenceSymbol.
// rng_draws is the last lane's counter-stream draws per batch.
void BM_EngineWindowBatch(benchmark::State& state) {
  RngStream process(kSeed, "batch-link");
  const link::OpticalLink link(bench_link_config(), process);
  const link::LinkEngine engine(link);
  const util::BatchRngStream lanes(kSeed, "batch-bench");

  link::EngineBatchScratch scratch;
  std::vector<link::WindowResult> windows(link::LinkEngine::kEngineBatch);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    windows[i].pulse_start_s = link.ppm().encode(i % 32).seconds();
  }
  const std::vector<link::WindowResult> staged = windows;

  std::uint64_t first_lane = 0;
  std::uint64_t draws = 0;
  for (auto _ : state) {
    std::copy(staged.begin(), staged.end(), windows.begin());
    engine.simulate_windows(windows, lanes, scratch, first_lane);
    first_lane += windows.size();
    draws += windows.back().rng_draws;
    benchmark::DoNotOptimize(windows.data());
    benchmark::ClobberMemory();
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(draws), benchmark::Counter::kAvgIterations);
  state.counters["windows_per_op"] =
      benchmark::Counter(static_cast<double>(windows.size()));
}
BENCHMARK(BM_EngineWindowBatch);

// One op = 256 random symbols through the window driver (kernel,
// conversion and decode): the engine's per-symbol cost. rng_draws is
// the lanes' draws (symbols, windows and TDC coins) per op.
void BM_EngineMeasure(benchmark::State& state) {
  RngStream process(kSeed, "measure-link");
  const link::OpticalLink link(bench_link_config(), process);
  const link::LinkEngine engine(link);
  RngStream tx(kSeed, "measure-tx");
  std::uint64_t lane_draws = 0;
  for (auto _ : state) {
    const link::LinkRunStats stats = engine.measure(256, tx);
    lane_draws += stats.rng_draws;
    benchmark::DoNotOptimize(stats.symbol_errors);
  }
  state.counters["rng_draws"] = benchmark::Counter(
      static_cast<double>(lane_draws), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EngineMeasure);

// ---------- hardware realisation ----------

// The link_jitter device (scenarios/link_jitter.spec) at 40 ps jitter.
link::OpticalLinkConfig jitter_device_config() {
  link::OpticalLinkConfig c;
  c.bits_per_symbol = 8;
  c.channel_transmittance = 0.8;
  c.led.peak_power = util::Power::microwatts(50.0);
  c.led.pulse_width = Time::picoseconds(100.0);
  c.spad.dcr_at_ref = util::Frequency::hertz(350.0);
  c.spad.jitter_sigma = Time::picoseconds(40.0);
  c.calibration_samples = 100000;
  return c;
}

// One op = one calibrated OpticalLink of the link_jitter device: the
// delay line, the code-density histogram and 1000 training pulses
// (ROADMAP item 3 targets 250 us). rng_draws counts all of a
// construction's draws -- its process stream's, its calibration
// fork's and the training lanes' -- from a replay after the timed loop
// that builds each link uncalibrated and calls recalibrate() on the
// constructor's fork, since the constructor keeps the lane count.
void BM_CalibratedConstruction(benchmark::State& state) {
  const link::OpticalLinkConfig cfg = jitter_device_config();
  RngStream process(kSeed, "construction");
  for (auto _ : state) {
    const link::OpticalLink link(cfg, process);
    benchmark::DoNotOptimize(link.detection_offset());
  }
  link::OpticalLinkConfig uncalibrated = cfg;
  uncalibrated.calibrate = false;
  RngStream replay(kSeed, "construction");
  std::uint64_t draws = 0;
  for (benchmark::IterationCount i = 0; i < state.iterations(); ++i) {
    const std::uint64_t before = replay.draws();
    link::OpticalLink link(uncalibrated, replay);
    RngStream cal = replay.fork("construction-calibration");
    draws += replay.draws() - before + link.recalibrate(cfg.calibration_samples, cal);
    draws += cal.draws();
  }
  state.counters["rng_draws"] =
      benchmark::Counter(static_cast<double>(draws), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CalibratedConstruction);

}  // namespace

int main(int argc, char** argv) {
  return oci::benchsupport::run_and_export(argc, argv, "bench_link_engine",
                                           "BENCH_link.json");
}
