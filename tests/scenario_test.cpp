// Tests for the Scenario API: spec validation rejections, the shared
// parameter registry, seed resolution (--seed= / OCI_SEED), the
// spec -> run -> RunReport round trip at a fixed seed (deterministic,
// thread-count independent), and statistical consistency between
// ScenarioRunner's engine resolution and direct hand-wired engine
// calls at the same operating point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/bus/vertical_bus.hpp"
#include "oci/fault/fault.hpp"
#include "oci/link/fec_link.hpp"
#include "oci/link/link_engine.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/spec.hpp"
#include "support/stat_assert.hpp"

namespace {

using namespace oci;
using scenario::FecKind;
using scenario::NocDelivery;
using scenario::NocPattern;
using scenario::RunPoint;
using scenario::RunReport;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::SweepAxis;
using scenario::Topology;
using scenario::TrafficMode;

constexpr std::uint64_t kSeed = 20260726;

/// Pins the process repro scale for the duration of a test so budget
/// resolution is deterministic regardless of the CI environment.
struct ScaleGuard {
  explicit ScaleGuard(double s) { analysis::set_repro_scale_for_test(s); }
  ~ScaleGuard() { analysis::set_repro_scale_for_test(std::nullopt); }
};

/// Small, fast point-to-point spec (no calibration).
ScenarioSpec tiny_link_spec() {
  ScenarioSpec spec;
  spec.name = "tiny_link";
  spec.seed = kSeed;
  spec.topology = Topology::kPointToPoint;
  spec.device.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.budget.samples = 600;
  spec.budget.repro_scaled = false;
  return spec;
}

std::string validation_message(const ScenarioSpec& spec) {
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioSpec, ValidSpecPasses) {
  EXPECT_NO_THROW(tiny_link_spec().validate());
}

TEST(ScenarioSpec, RejectsZeroWdmChannels) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.wdm.grid.channels = 0;
  EXPECT_NE(validation_message(spec).find("channels >= 1"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFecOverRawSymbolTraffic) {
  ScenarioSpec spec = tiny_link_spec();
  spec.fec = FecKind::kHamming;  // mode stays kAuto -> symbols
  EXPECT_NE(validation_message(spec).find("fec"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFecOverPacketTopology) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.fec = FecKind::kHamming;
  EXPECT_NE(validation_message(spec).find("fec"), std::string::npos);
}

TEST(ScenarioSpec, RejectsEmptySweepAxis) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep.push_back(SweepAxis::list("jitter_ps", {}));
  EXPECT_NE(validation_message(spec).find("no points"), std::string::npos);
}

TEST(ScenarioSpec, RejectsUnknownSweepParameter) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep.push_back(SweepAxis::list("warp_factor", {9.0}));
  EXPECT_NE(validation_message(spec).find("unknown parameter 'warp_factor'"),
            std::string::npos);
}

TEST(ScenarioSpec, RejectsNumericAxisOverCategoricalParameter) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.sweep.push_back(SweepAxis::list("mac", {1.0, 2.0}));
  EXPECT_NE(validation_message(spec).find("categorical"), std::string::npos);
}

TEST(ScenarioSpec, RejectsZeroBudget) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 0;
  EXPECT_NE(validation_message(spec).find("samples"), std::string::npos);
}

TEST(ScenarioSpec, RejectsStructuralParameterSweeps) {
  for (const std::string key : {"topology", "mode", "seed", "name"}) {
    ScenarioSpec spec = tiny_link_spec();
    spec.sweep.push_back(scenario::is_categorical_param(key)
                             ? SweepAxis::categories(key, {"a", "b"})
                             : SweepAxis::list(key, {1.0, 2.0}));
    EXPECT_NE(validation_message(spec).find("structural"), std::string::npos) << key;
  }
}

TEST(ScenarioSpec, SeedParsesFullUint64Range) {
  ScenarioSpec spec;
  scenario::set_param(spec, "seed", "18446744073709551615");  // 2^64 - 1
  EXPECT_EQ(spec.seed, 18446744073709551615ull);
  scenario::set_param(spec, "seed", "9007199254740993");  // 2^53 + 1, not double-exact
  EXPECT_EQ(spec.seed, 9007199254740993ull);
  EXPECT_THROW(scenario::set_param(spec, "seed", "-1"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "seed", "99999999999999999999"),
               std::invalid_argument);  // > 2^64
  EXPECT_THROW(scenario::set_param(spec, "seed", "12x"), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsFramesOffPointToPoint) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.mode = TrafficMode::kFrames;
  EXPECT_NE(validation_message(spec).find("frame traffic"), std::string::npos);
}

TEST(ScenarioSpec, RejectsOutOfRangeFaultParameters) {
  ScenarioSpec spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 1.5;
  EXPECT_NE(validation_message(spec).find("fault.dead_pixel_fraction"),
            std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 0.7;
  spec.fault.hot_pixel_fraction = 0.7;  // sums past the whole array
  EXPECT_NE(validation_message(spec).find("must not exceed 1"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.link_failure_probability = -0.1;
  EXPECT_NE(validation_message(spec).find("fault.link_failure_probability"),
            std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_pixel_fraction = 0.1;
  spec.fault.array_pixels = 0;
  EXPECT_NE(validation_message(spec).find("array_pixels"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.flaky_attenuation_db = -3.0;
  spec.fault.flaky_window_probability = 0.1;
  EXPECT_NE(validation_message(spec).find("flaky_attenuation_db"), std::string::npos);
}

TEST(ScenarioSpec, RejectsFaultsOnForeignTopologies) {
  // Each fault kind maps to one engine path; arming it anywhere else is
  // a silent no-op and must be rejected instead.
  ScenarioSpec spec = tiny_link_spec();
  spec.fault.dead_channel_fraction = 0.25;  // WDM fault on a p2p link
  EXPECT_NE(validation_message(spec).find("wdm topology"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dead_node_fraction = 0.25;  // NoC fault on a p2p link
  EXPECT_NE(validation_message(spec).find("stack-noc topology"), std::string::npos);

  spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.fault.dead_pixel_fraction = 0.25;  // pixel fault on the slot simulation
  EXPECT_NE(validation_message(spec).find("pixel faults"), std::string::npos);

  spec = tiny_link_spec();
  spec.mode = TrafficMode::kCodeDensity;
  spec.fault.tdc_drift_c = 15.0;
  EXPECT_NE(validation_message(spec).find("code-density"), std::string::npos);

  spec = tiny_link_spec();
  spec.fault.dark_window_probability = 0.1;
  spec.aggressors = {scenario::AggressorSpec{10.0, 0.0}};
  EXPECT_NE(validation_message(spec).find("aggressor"), std::string::npos);

  // Killing all but one die must fail: the slot simulation needs a
  // live transmitter AND a live destination.
  spec = tiny_link_spec();
  spec.topology = Topology::kStackNoc;
  spec.noc.dies = 4;
  spec.fault.dead_node_fraction = 0.9;
  EXPECT_NE(validation_message(spec).find("2 live dies"), std::string::npos);
}

TEST(ScenarioSpec, CollectsEveryErrorInOneMessage) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.wdm.grid.channels = 0;
  spec.budget.samples = 0;
  spec.sweep.push_back(SweepAxis::list("bogus", {1.0}));
  const std::string msg = validation_message(spec);
  EXPECT_NE(msg.find("channels"), std::string::npos);
  EXPECT_NE(msg.find("samples"), std::string::npos);
  EXPECT_NE(msg.find("bogus"), std::string::npos);
}

TEST(ScenarioSpec, ParameterRegistryAppliesAndRejects) {
  ScenarioSpec spec;
  scenario::set_param(spec, "jitter_ps", "125");
  EXPECT_DOUBLE_EQ(spec.device.spad.jitter_sigma.picoseconds(), 125.0);
  scenario::set_param(spec, "mac", "aloha");
  EXPECT_EQ(spec.noc.mac, "aloha");
  scenario::set_param(spec, "dies", "12");
  EXPECT_EQ(spec.noc.dies, 12u);
  EXPECT_EQ(spec.bus.dies, 12u);
  scenario::set_param(spec, "tech_node", "65nm");
  EXPECT_NEAR(spec.device.delay_line.nominal_delay.picoseconds(), 60.0, 5.0);

  EXPECT_THROW(scenario::set_param(spec, "nope", "1"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "jitter_ps", "fast"), std::invalid_argument);
  EXPECT_THROW(scenario::set_param(spec, "mac", "csma"), std::invalid_argument);
  EXPECT_TRUE(scenario::is_categorical_param("mac"));
  EXPECT_FALSE(scenario::is_categorical_param("jitter_ps"));
  EXPECT_FALSE(scenario::known_params().empty());
}

TEST(ScenarioSpec, SweepAxisFactories) {
  const SweepAxis lin = SweepAxis::linear("jitter_ps", 0.0, 100.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin.values.front(), 0.0);
  EXPECT_DOUBLE_EQ(lin.values.back(), 100.0);
  EXPECT_DOUBLE_EQ(lin.values[2], 50.0);

  const SweepAxis lg = SweepAxis::logspace("samples", 1.0, 100.0, 3);
  ASSERT_EQ(lg.size(), 3u);
  EXPECT_NEAR(lg.values[1], 10.0, 1e-9);

  EXPECT_THROW(SweepAxis::logspace("samples", 0.0, 10.0, 3), std::invalid_argument);

  const SweepAxis cat = SweepAxis::categories("mac", {"tdma", "token"});
  EXPECT_TRUE(cat.categorical());
  EXPECT_EQ(cat.display(1), "token");
}

TEST(ScenarioRunner, GoldenRoundTripIsDeterministic) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 120.0}),
                SweepAxis::categories("labeling", {"gray", "binary"})};

  const RunReport a = ScenarioRunner().run(spec);
  const RunReport b = ScenarioRunner().run(spec);

  ASSERT_EQ(a.points.size(), 4u);
  EXPECT_EQ(a.axis_names, (std::vector<std::string>{"jitter_ps", "labeling"}));
  ASSERT_EQ(a.metric_names.size(), 9u);
  EXPECT_EQ(a.seed, kSeed);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].coordinate, b.points[i].coordinate);
    EXPECT_EQ(a.points[i].metrics, b.points[i].metrics);  // bit-identical
    EXPECT_EQ(a.points[i].rng_draws, b.points[i].rng_draws);
    EXPECT_EQ(a.points[i].samples, 600u);
  }
  // Label lookup round-trips.
  const RunPoint* p = a.find("jitter_ps=120/labeling=gray");
  ASSERT_NE(p, nullptr);
  EXPECT_NO_THROW((void)a.metric(*p, "ser"));
  EXPECT_THROW((void)a.metric(*p, "nope"), std::out_of_range);
  EXPECT_EQ(a.find("jitter_ps=999/labeling=gray"), nullptr);
}

TEST(ScenarioRunner, ThreadCountDoesNotChangeResults) {
  ScenarioSpec spec = tiny_link_spec();
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 80.0, 120.0, 160.0})};
  const RunReport one = ScenarioRunner(1).run(spec);
  const RunReport four = ScenarioRunner(4).run(spec);
  ASSERT_EQ(one.points.size(), four.points.size());
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    EXPECT_EQ(one.points[i].metrics, four.points[i].metrics);
    EXPECT_EQ(one.points[i].rng_draws, four.points[i].rng_draws);
  }
}

TEST(ScenarioRunner, MatchesDirectEngineWiringStatistically) {
  // The runner's point-to-point resolution must be the same physics as
  // hand-wiring OpticalLink::measure at the same operating point: a
  // two-proportion z-test on the symbol error counts.
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(130.0);
  spec.budget.samples = 4000;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  const auto scenario_errors = static_cast<std::uint64_t>(
      report.metric(p, "ser") * static_cast<double>(p.samples) + 0.5);

  util::RngStream process(kSeed, "direct-process");
  const link::OpticalLink direct(spec.device, process);
  util::RngStream tx(kSeed, "direct-tx");
  const link::LinkRunStats stats = direct.measure(4000, tx);

  EXPECT_RATES_CONSISTENT(scenario_errors, p.samples, stats.symbol_errors,
                          stats.symbols_sent, 1e-4);
}

TEST(ScenarioRunner, FrameTrafficMatchesDirectFecWiring) {
  ScenarioSpec spec = tiny_link_spec();
  spec.mode = TrafficMode::kFrames;
  spec.fec = FecKind::kHamming;
  spec.payload_bytes = 8;
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.device.bits_per_symbol = 8;
  spec.budget.samples = 120;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_DOUBLE_EQ(report.metric(p, "code_rate"), 0.5);
  const double rate = report.metric(p, "delivery_rate");
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(ScenarioRunner, BudgetRoutesThroughInjectedReproScale) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 1000;
  spec.budget.floor = 10;
  spec.budget.repro_scaled = true;

  const ScaleGuard guard(0.05);
  const RunReport report = ScenarioRunner().run(spec);
  EXPECT_EQ(report.points.front().samples, 50u);
  EXPECT_DOUBLE_EQ(report.repro_scale, 0.05);
}

TEST(ScenarioRunner, WdmScenarioRuns) {
  ScenarioSpec spec;
  spec.name = "wdm_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kWdm;
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::microwatts(2.0);
  spec.wdm.grid.channels = 3;
  spec.budget.samples = 60;
  spec.budget.repro_scaled = false;
  spec.sweep = {SweepAxis::list("channels", {1.0, 3.0})};

  const RunReport report = ScenarioRunner().run(spec);
  ASSERT_EQ(report.points.size(), 2u);
  // Aggregate goodput grows with channel count.
  EXPECT_GT(report.metric(report.points[1], "aggregate_gbps"),
            report.metric(report.points[0], "aggregate_gbps"));
}

TEST(ScenarioRunner, VerticalBusScenarioRuns) {
  ScenarioSpec spec;
  spec.name = "bus_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kVerticalBus;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::microwatts(150.0);
  spec.device.led.wavelength = util::Wavelength::nanometres(1050.0);
  spec.bus.dies = 4;
  spec.budget.samples = 40;
  spec.budget.repro_scaled = false;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_GE(report.metric(p, "serviceable_dies"), 0.0);
  EXPECT_LE(report.metric(p, "worst_ser"), 1.0);
}

/// A four-die bus through which the LED's 1050 nm light passes.
ScenarioSpec tiny_bus_spec() {
  ScenarioSpec spec;
  spec.name = "bus_draws";
  spec.seed = kSeed;
  spec.topology = Topology::kVerticalBus;
  spec.device.calibrate = false;
  spec.device.led.peak_power = util::Power::microwatts(150.0);
  spec.device.led.wavelength = util::Wavelength::nanometres(1050.0);
  spec.bus.dies = 4;
  spec.budget.samples = 200;
  spec.budget.repro_scaled = false;
  return spec;
}

/// The bus a spec's point runs on, built as the runner builds it.
bus::VerticalBusConfig bus_config_of(const ScenarioSpec& spec) {
  bus::VerticalBusConfig bc;
  bc.die = spec.bus.die;
  bc.dies = spec.bus.dies;
  bc.master = spec.bus.master;
  bc.design = spec.device.design;
  bc.led = spec.device.led;
  bc.spad = spec.device.spad;
  bc.min_detection_probability = spec.bus.min_detection_probability;
  bc.bits_per_symbol = spec.device.bits_per_symbol;
  bc.mc_calibrate = spec.device.calibrate;
  bc.mc_calibration_samples = spec.device.calibration_samples;
  return bc;
}

TEST(ScenarioRunner, VerticalBusCountsEveryDiesDraws) {
  // A bus point draws its receivers' construction from chunk 0's
  // "process" fork, the broadcast's symbols from the chunk's "mc"
  // stream, and each receiving die's window physics from its own fork
  // of that stream and its kernel lanes. Hand-rolled recount of the one
  // chunk, one driver run per die.
  const ScenarioSpec spec = tiny_bus_spec();
  const RunReport report = ScenarioRunner(1).run(spec);
  const RunPoint& p = report.points.front();
  ASSERT_EQ(p.chunks, 1u);

  const bus::VerticalBus vbus(bus_config_of(spec));
  sim::BatchConfig sc;
  sc.threads = 1;
  sc.root_seed = report.seed;
  util::RngStream rng = sim::BatchRunner(sc).task_stream("scenario:" + spec.name, 0, 0);
  util::RngStream process = rng.fork("process");
  const bus::BusReceivers receivers = vbus.build_receivers(process);
  util::RngStream mc = rng.fork("mc");
  const auto max_symbol =
      static_cast<std::int64_t>((1u << receivers.front()->bits_per_symbol()) - 1);
  std::vector<std::uint64_t> train(spec.budget.samples);
  for (std::uint64_t& s : train) s = static_cast<std::uint64_t>(mc.uniform_int(0, max_symbol));
  std::uint64_t draws = 0;
  for (const auto& receiver : receivers) {
    util::RngStream rx = mc.fork("bus-die-rx");
    const link::LinkRunStats stats = link::LinkEngine(*receiver).run_sequence(
        train, rx, [](std::size_t, const link::LinkEngine::SymbolOutcome&) {});
    draws += rx.draws() + stats.rng_draws;
  }
  draws += process.draws() + mc.draws();
  EXPECT_GT(p.rng_draws, 0u);
  EXPECT_EQ(p.rng_draws, draws);
}

TEST(ScenarioRunner, NocEngineCouplingRuns) {
  ScenarioSpec spec;
  spec.name = "noc_engine_smoke";
  spec.seed = kSeed;
  spec.topology = Topology::kStackNoc;
  spec.device.bits_per_symbol = 8;
  spec.device.calibrate = false;
  spec.noc.dies = 4;
  spec.noc.delivery = NocDelivery::kEngine;
  spec.noc.offered_load = 0.4;
  spec.budget.samples = 400;
  spec.budget.repro_scaled = false;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  EXPECT_GT(report.metric(p, "transfer_p"), 0.0);
  EXPECT_LE(report.metric(p, "carried_load"), 1.0);
}

TEST(ScenarioRunner, AggressorPulsesDegradeTheLink) {
  ScenarioSpec quiet = tiny_link_spec();
  quiet.budget.samples = 1500;
  ScenarioSpec loud = quiet;
  loud.aggressors = {scenario::AggressorSpec{60.0, 0.0}};  // bright co-channel pulse

  const RunReport q = ScenarioRunner().run(quiet);
  const RunReport l = ScenarioRunner().run(loud);
  // The aggressor's triggers surface as noise captures / symbol errors.
  EXPECT_GT(l.metric(l.points.front(), "noise_capture_rate") +
                l.metric(l.points.front(), "ser"),
            q.metric(q.points.front(), "noise_capture_rate") +
                q.metric(q.points.front(), "ser"));
}

TEST(ScenarioRunner, SweepCanPushSpecInvalid) {
  ScenarioSpec spec = tiny_link_spec();
  spec.topology = Topology::kWdm;
  spec.device.led.peak_power = util::Power::microwatts(2.0);
  spec.sweep = {SweepAxis::list("channels", {0.0})};  // 0 channels is invalid
  EXPECT_THROW((void)ScenarioRunner().run(spec), std::invalid_argument);
}

TEST(ScenarioReport, TableAndJsonEmit) {
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 50;
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 80.0})};
  const RunReport report = ScenarioRunner().run(spec);

  const util::Table t = report.to_table();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), report.axis_names.size() + report.metric_names.size());

  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("tiny_link"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/scenario_test_bench.json";
  scenario::report_io::save(report, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"binary\": \"scenario_tiny_link\""), std::string::npos);
  EXPECT_NE(json.find("tiny_link/jitter_ps=40"), std::string::npos);
  EXPECT_NE(json.find("\"rng_draws_per_op\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // schema 2: every metric is an interval quartet and the run carries
  // environment metadata.
  EXPECT_NE(json.find("\"ser\": { \"value\": "), std::string::npos);
  EXPECT_NE(json.find("\"ci_low\""), std::string::npos);
  EXPECT_NE(json.find("\"ci_high\""), std::string::npos);
  EXPECT_NE(json.find("\"n_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"adaptive\": false"), std::string::npos);
}

TEST(ScenarioSpec, PrecisionRegistryAndValidation) {
  ScenarioSpec spec = tiny_link_spec();
  scenario::set_param(spec, "precision.half_width", "0.01");
  EXPECT_TRUE(spec.precision.enabled);  // any target arms adaptive mode
  EXPECT_DOUBLE_EQ(spec.precision.target_half_width, 0.01);
  scenario::set_param(spec, "precision.metric", "ser");
  scenario::set_param(spec, "precision.chunk", "250");
  scenario::set_param(spec, "precision.max_samples", "8000");
  EXPECT_NO_THROW(spec.validate());
  scenario::set_param(spec, "precision.enabled", "0");  // explicit off switch
  EXPECT_FALSE(spec.precision.enabled);

  // Enabled with nothing to stop on.
  ScenarioSpec bare = tiny_link_spec();
  bare.precision.enabled = true;
  EXPECT_NE(validation_message(bare).find("stopping target"), std::string::npos);

  // Target metric must exist and must not be deterministic.
  ScenarioSpec unknown = tiny_link_spec();
  unknown.precision.enabled = true;
  unknown.precision.target_half_width = 0.01;
  unknown.precision.metric = "nope";
  EXPECT_NE(validation_message(unknown).find("not a metric"), std::string::npos);
  unknown.precision.metric = "slot_ps";
  EXPECT_NE(validation_message(unknown).find("no confidence interval"),
            std::string::npos);

  // min_samples above even the auto-resolved (8x budget) cap would
  // sample forever past the documented hard cap: rejected up front.
  ScenarioSpec inverted = tiny_link_spec();  // 600 samples -> auto cap 4800
  inverted.precision.enabled = true;
  inverted.precision.target_half_width = 0.01;
  inverted.precision.min_samples = 100000;
  EXPECT_NE(validation_message(inverted).find("resolved adaptive budget cap"),
            std::string::npos);

  // Code-density traffic cannot chunk.
  ScenarioSpec density = tiny_link_spec();
  density.mode = TrafficMode::kCodeDensity;
  density.precision.enabled = true;
  density.precision.target_half_width = 0.01;
  EXPECT_NE(validation_message(density).find("code-density"), std::string::npos);

  // Inverted budget bracket.
  ScenarioSpec bounds = tiny_link_spec();
  bounds.precision.enabled = true;
  bounds.precision.target_half_width = 0.01;
  bounds.precision.min_samples = 500;
  bounds.precision.max_samples = 100;
  EXPECT_NE(validation_message(bounds).find("min_samples"), std::string::npos);
}

TEST(ScenarioAdaptive, FixedModeCarriesIntervalEstimates) {
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.budget.samples = 1000;

  const RunReport report = ScenarioRunner().run(spec);
  EXPECT_FALSE(report.adaptive);
  const RunPoint& p = report.points.front();
  ASSERT_EQ(p.estimates.size(), report.metric_names.size());
  EXPECT_EQ(p.chunks, 1u);

  const analysis::Estimate& ser = report.estimate(p, "ser");
  EXPECT_DOUBLE_EQ(ser.value, report.metric(p, "ser"));
  EXPECT_EQ(ser.n_samples, 1000u);
  // Rate metrics always carry a real interval (Wilson stays
  // informative even at p-hat = 0).
  EXPECT_GT(ser.ci_high, ser.ci_low);
  EXPECT_GE(ser.value, ser.ci_low);
  EXPECT_LE(ser.value, ser.ci_high);
  // One chunk gives mean metrics no spread information...
  const analysis::Estimate& tp = report.estimate(p, "goodput_bps");
  EXPECT_DOUBLE_EQ(tp.half_width(), 0.0);
  // ...and deterministic metrics never have any.
  EXPECT_DOUBLE_EQ(report.estimate(p, "slot_ps").half_width(), 0.0);
  EXPECT_THROW((void)report.estimate(p, "nope"), std::out_of_range);
}

TEST(ScenarioAdaptive, StoppingIsThreadCountInvariant) {
  // The acceptance-critical determinism guarantee WITH adaptive
  // stopping active: per-chunk RNG streams are a pure function of
  // (seed, name, index, chunk), so the stopping decisions -- and every
  // downstream number -- are identical for any pool width.
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 400;
  spec.sweep = {SweepAxis::list("jitter_ps", {40.0, 120.0, 160.0, 200.0})};
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 0.02;
  spec.precision.chunk = 100;
  spec.precision.max_samples = 1600;
  spec.precision.enabled = true;

  const RunReport one = ScenarioRunner(1).run(spec);
  const RunReport eight = ScenarioRunner(8).run(spec);
  EXPECT_TRUE(one.adaptive);
  ASSERT_EQ(one.points.size(), eight.points.size());
  bool any_multi_chunk = false;
  for (std::size_t i = 0; i < one.points.size(); ++i) {
    const RunPoint& a = one.points[i];
    const RunPoint& b = eight.points[i];
    EXPECT_EQ(a.metrics, b.metrics);  // bit-identical
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.rng_draws, b.rng_draws);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t m = 0; m < a.estimates.size(); ++m) {
      EXPECT_EQ(a.estimates[m].ci_low, b.estimates[m].ci_low);
      EXPECT_EQ(a.estimates[m].ci_high, b.estimates[m].ci_high);
      EXPECT_EQ(a.estimates[m].n_samples, b.estimates[m].n_samples);
    }
    any_multi_chunk = any_multi_chunk || a.chunks > 1;
  }
  // The guarantee must actually be exercised: at least one sweep point
  // ran multiple chunks before its stopping rule fired.
  EXPECT_TRUE(any_multi_chunk);
}

TEST(ScenarioAdaptive, RareEventUpperBoundStopsEarly) {
  ScenarioSpec spec = tiny_link_spec();  // jitterless: ser is ~0
  spec.budget.samples = 1000;
  spec.precision.metric = "ser";
  spec.precision.stop_below = 0.01;  // "confidently below 1%" is enough
  spec.precision.chunk = 200;
  spec.precision.max_samples = 20000;
  spec.precision.enabled = true;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  const analysis::Estimate& ser = report.estimate(p, "ser");
  // Stopped as soon as the Wilson upper bound cleared the threshold --
  // far below the max budget.
  EXPECT_LT(ser.ci_high, 0.01);
  EXPECT_LT(p.samples, 20000u);
  EXPECT_LE(p.chunks, 5u);
}

TEST(ScenarioAdaptive, MaxSamplesIsAHardCap) {
  ScenarioSpec spec = tiny_link_spec();
  spec.device.spad.jitter_sigma = util::Time::picoseconds(200.0);  // noisy
  spec.budget.samples = 400;
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 1e-6;  // unreachable: the cap must fire
  spec.precision.chunk = 60;
  spec.precision.max_samples = 200;  // NOT a chunk multiple
  spec.precision.enabled = true;

  const RunReport report = ScenarioRunner().run(spec);
  const RunPoint& p = report.points.front();
  // 60 + 60 + 60 + a clamped 20-sample tail chunk: never overshoots.
  EXPECT_EQ(p.samples, 200u);
  EXPECT_EQ(p.chunks, 4u);
  EXPECT_EQ(report.estimate(p, "ser").n_samples, 200u);
}

TEST(ScenarioAdaptive, MeetsTargetWithThreeFoldFewerSymbols) {
  // The acceptance benchmark, on the checked-in link_jitter scenario:
  // reaching the spec's +/-0.01 SER half-width target everywhere costs
  // a fixed (non-adaptive) budget z^2/(4 h^2) samples at EVERY sweep
  // point -- a fixed budget must assume worst-case variance because it
  // cannot look at the data -- while the adaptive runner spends chunks
  // only where the interval is still wide. Required: >= 3x fewer total
  // symbols at the same guaranteed precision (measured: ~6x), and
  // strictly fewer than even the spec's hand-tuned 4000/point budget.
  const ScaleGuard guard(1.0);
  ScenarioSpec spec;
  ASSERT_NO_THROW(spec = scenario::parse_spec_file(std::string(OCI_SOURCE_DIR) +
                                                   "/scenarios/link_jitter.spec"));
  spec.device.calibration_samples = 2000;  // test speed; physics unchanged
  spec.budget.repro_scaled = false;
  const double target = spec.precision.target_half_width;
  ASSERT_DOUBLE_EQ(target, 0.01);  // the checked-in spec's contract

  ScenarioSpec fixed = spec;
  fixed.precision = scenario::PrecisionSpec{};
  const auto conservative = static_cast<std::uint64_t>(
      std::ceil(1.96 * 1.96 * 0.25 / (target * target)));  // 9604
  fixed.budget.samples = conservative;

  ScenarioSpec adaptive = spec;
  adaptive.precision.chunk = 500;
  adaptive.precision.max_samples = 2 * conservative;

  const RunReport f = ScenarioRunner().run(fixed);
  const RunReport a = ScenarioRunner().run(adaptive);

  std::uint64_t fixed_total = 0;
  std::uint64_t adaptive_total = 0;
  for (const RunPoint& p : f.points) {
    fixed_total += p.samples;
    EXPECT_LE(f.estimate(p, "ser").half_width(), target + 1e-12) << "fixed point";
  }
  for (const RunPoint& p : a.points) {
    adaptive_total += p.samples;
    EXPECT_LE(a.estimate(p, "ser").half_width(), target + 1e-12)
        << "adaptive point " << p.label(a.axis_names);
  }
  RecordProperty("fixed_total_symbols", static_cast<int>(fixed_total));
  RecordProperty("adaptive_total_symbols", static_cast<int>(adaptive_total));
  std::cout << "[adaptive-precision] same +/-" << target
            << " SER half-width: fixed budget " << fixed_total
            << " symbols, adaptive " << adaptive_total << " symbols ("
            << static_cast<double>(fixed_total) / static_cast<double>(adaptive_total)
            << "x fewer)\n";
  EXPECT_LE(3 * adaptive_total, fixed_total);
  // And cheaper than the spec's own fixed 4000/point budget too.
  EXPECT_LT(adaptive_total, 5 * 4000u);
}

// ---------- hardware realised once per point ----------

/// Calibrated link under an adaptive rule it cannot meet, so the point
/// runs to its cap in `chunk`-sized chunks.
ScenarioSpec chunked_link_spec(std::uint64_t chunk, std::uint64_t total) {
  ScenarioSpec spec = tiny_link_spec();
  spec.name = "chunked_link";
  spec.device.calibrate = true;
  spec.device.calibration_samples = 2000;
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.budget.samples = total;
  spec.precision.enabled = true;
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 1e-6;
  spec.precision.chunk = chunk;
  spec.precision.max_samples = total;
  return spec;
}

TEST(ScenarioRealisation, EveryChunkMeasuresChunkZerosDevice) {
  // Hand-rolled: ONE device from chunk 0's "process" fork, then each
  // chunk's measure() on its own "tx" fork. The runner must reproduce
  // every metric and rng_draws bit for bit, the device's draws counted
  // once.
  const ScenarioSpec spec = chunked_link_spec(100, 800);
  const RunReport report = ScenarioRunner(2).run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  const RunPoint& p = report.points.front();
  ASSERT_EQ(p.chunks, 8u);

  sim::BatchConfig bc;
  bc.threads = 1;
  bc.root_seed = report.seed;
  const sim::BatchRunner runner(bc);
  const std::string label = "scenario:" + spec.name;
  util::RngStream process = runner.task_stream(label, 0, 0).fork("process");
  const link::OpticalLink device(spec.device, process);
  std::uint64_t draws = process.draws();
  std::vector<scenario::MetricState> state;
  for (const scenario::MetricDef& d : scenario::metrics_for(spec)) state.emplace_back(d.kind);
  for (std::size_t k = 0; k < p.chunks; ++k) {
    util::RngStream rng = runner.task_stream(label, 0, k);
    (void)rng.fork("process");
    util::RngStream tx = rng.fork("tx");
    const link::LinkRunStats s = device.measure(100, tx);
    draws += tx.draws() + s.rng_draws;
    const auto n = static_cast<double>(s.symbols_sent);
    const auto bits = static_cast<double>(s.total_bits);
    const auto bit_errors = static_cast<double>(s.bit_errors);
    const std::vector<double> chunk = {
        static_cast<double>(s.symbol_errors + s.erasures) / n,
        bit_errors / bits,
        static_cast<double>(s.erasures) / n,
        static_cast<double>(s.noise_captures) / n,
        device.ppm().config().slot_width.picoseconds(),
        s.raw_throughput().bits_per_second(),
        (static_cast<double>(s.total_bits) - bit_errors) / s.elapsed.seconds(),
        s.energy_per_bit().joules(),
        0.0};
    ASSERT_EQ(chunk.size(), state.size());
    for (std::size_t m = 0; m < state.size(); ++m) state[m].add(chunk[m], 100);
  }
  EXPECT_EQ(p.rng_draws, draws);
  for (std::size_t m = 0; m < state.size(); ++m) {
    EXPECT_EQ(p.metrics[m], state[m].estimate(report.confidence_z, p.samples).value)
        << report.metric_names[m];
  }
}

TEST(ScenarioRealisation, EveryBusChunkMeasuresChunkZerosReceivers) {
  // The bus twin: ONE set of calibrated receivers from chunk 0's
  // "process" fork, then each chunk's broadcast on its own "mc" fork.
  // The runner must reproduce every metric and rng_draws bit for bit,
  // the receivers' draws counted once.
  ScenarioSpec spec = tiny_bus_spec();
  spec.name = "chunked_bus";
  spec.device.calibrate = true;
  spec.device.calibration_samples = 2000;
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.budget.samples = 400;
  spec.precision.enabled = true;
  spec.precision.metric = "mean_ser";
  spec.precision.target_half_width = 1e-6;
  spec.precision.chunk = 100;
  spec.precision.max_samples = 400;
  const RunReport report = ScenarioRunner(2).run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  const RunPoint& p = report.points.front();
  ASSERT_EQ(p.chunks, 4u);

  const bus::VerticalBus vbus(bus_config_of(spec));
  sim::BatchConfig bc;
  bc.threads = 1;
  bc.root_seed = report.seed;
  const sim::BatchRunner runner(bc);
  const std::string label = "scenario:" + spec.name;
  util::RngStream process = runner.task_stream(label, 0, 0).fork("process");
  const bus::BusReceivers receivers = vbus.build_receivers(process);
  std::uint64_t draws = process.draws();
  std::vector<scenario::MetricState> state;
  for (const scenario::MetricDef& d : scenario::metrics_for(spec)) state.emplace_back(d.kind);
  for (std::size_t k = 0; k < p.chunks; ++k) {
    util::RngStream rng = runner.task_stream(label, 0, k);
    (void)rng.fork("process");
    util::RngStream mc = rng.fork("mc");
    const bus::BusBroadcastResult run = vbus.monte_carlo_broadcast(receivers, 100, mc);
    std::uint64_t sent = 0;
    std::uint64_t errors = 0;
    draws += mc.draws();
    for (const link::LinkRunStats& d : run.per_die) {
      sent += d.symbols_sent;
      errors += d.symbol_errors;
      draws += d.rng_draws;
    }
    const std::vector<double> chunk = {
        run.worst_symbol_error_rate(), static_cast<double>(errors) / static_cast<double>(sent),
        static_cast<double>(vbus.serviceable_dies()),
        vbus.aggregate_broadcast_goodput().bits_per_second() / 1e9};
    ASSERT_EQ(chunk.size(), state.size());
    for (std::size_t m = 0; m < state.size(); ++m) state[m].add(chunk[m], 100);
  }
  EXPECT_EQ(p.rng_draws, draws);
  for (std::size_t m = 0; m < state.size(); ++m) {
    EXPECT_EQ(p.metrics[m], state[m].estimate(report.confidence_z, p.samples).value)
        << report.metric_names[m];
  }
  EXPECT_GT(report.metric(p, "mean_ser"), 0.0);  // the jitter really costs symbols
}

TEST(ScenarioRealisation, FaultDrawsLandOnChunkZeroOnce) {
  // A link-failure probability so small that no link breaks still draws
  // one Bernoulli per link from the fault stream. Over four chunks the
  // faulted point must cost exactly those draws more than the clean
  // one: charged to chunk 0, not to every chunk.
  ScenarioSpec clean;
  clean.name = "noc_fault_draws";
  clean.seed = kSeed;
  clean.topology = Topology::kStackNoc;
  clean.noc.dies = 8;
  clean.noc.mac = "token";
  clean.noc.offered_load = 0.5;
  clean.budget.samples = 2000;
  clean.budget.repro_scaled = false;
  clean.precision.enabled = true;
  clean.precision.metric = "carried_load";
  clean.precision.target_half_width = 1e-9;  // unreachable: runs to the cap
  clean.precision.chunk = 500;
  clean.precision.max_samples = 2000;
  ScenarioSpec faulted = clean;
  faulted.fault.link_failure_probability = 1e-12;

  const RunReport a = ScenarioRunner(2).run(clean);
  const RunReport b = ScenarioRunner(2).run(faulted);
  const RunPoint& pa = a.points.front();
  const RunPoint& pb = b.points.front();
  ASSERT_EQ(pb.chunks, 4u);
  ASSERT_EQ(pa.metrics, pb.metrics);  // nothing broke

  util::RngStream frng(b.seed, "fault/0/" + std::to_string(faulted.fault.salt));
  fault::Context ctx;
  ctx.noc_dies = faulted.noc.dies;
  (void)fault::realise(faulted.fault, ctx, frng);
  ASSERT_GT(frng.draws(), 0u);
  EXPECT_EQ(pb.rng_draws, pa.rng_draws + frng.draws());
}

TEST(ScenarioRealisation, SerIsInvariantToChunkSize) {
  // One device per point: the same total at chunk N, N/4 and N/16 is
  // the same experiment, so the pooled SER counts must agree.
  constexpr std::uint64_t kTotal = 3200;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;  // (errors, symbols)
  for (const std::uint64_t chunk : {kTotal, kTotal / 4, kTotal / 16}) {
    const RunReport report = ScenarioRunner(2).run(chunked_link_spec(chunk, kTotal));
    const RunPoint& p = report.points.front();
    ASSERT_EQ(p.samples, kTotal);
    ASSERT_EQ(p.chunks, kTotal / chunk);
    const scenario::MetricState& ser = p.state.front();
    ASSERT_EQ(report.metric_names.front(), "ser");
    counts.emplace_back(static_cast<std::uint64_t>(std::llround(ser.rate.successes())),
                        ser.rate.trials());
  }
  EXPECT_GT(counts.front().first, 0u);
  for (std::size_t k = 1; k < counts.size(); ++k) {
    EXPECT_RATES_CONSISTENT(counts.front().first, counts.front().second, counts[k].first,
                            counts[k].second, 1e-4);
  }
}

TEST(ScenarioRunner, FrameDrawsCountEveryTransfersKernelLanes) {
  // Hand-rolled frames point: the device from chunk 0's "process" fork,
  // then FEC transfers on its "tx" fork. rng_draws counts both streams
  // AND every transfer's window-kernel lanes.
  ScenarioSpec spec = tiny_link_spec();
  spec.name = "frame_draws";
  spec.mode = TrafficMode::kFrames;
  spec.fec = FecKind::kHamming;
  spec.payload_bytes = 8;
  spec.device.spad.jitter_sigma = util::Time::picoseconds(150.0);
  spec.device.bits_per_symbol = 8;
  spec.budget.samples = 40;
  const RunReport report = ScenarioRunner(2).run(spec);
  const RunPoint& p = report.points.front();

  sim::BatchConfig bc;
  bc.threads = 1;
  bc.root_seed = report.seed;
  util::RngStream rng = sim::BatchRunner(bc).task_stream("scenario:" + spec.name, 0, 0);
  util::RngStream process = rng.fork("process");
  const link::OpticalLink device(spec.device, process);
  util::RngStream tx = rng.fork("tx");
  const link::FecLink fec(device);
  const std::vector<std::uint8_t> payload(spec.payload_bytes, 0x5A);
  std::uint64_t lanes = 0;
  std::uint64_t ok = 0;
  for (int i = 0; i < 40; ++i) {
    const link::FecTransferResult t = fec.transfer(payload, tx);
    lanes += t.stats.rng_draws;
    if (t.payload && *t.payload == payload) ++ok;
  }
  EXPECT_GT(lanes, 0u);
  EXPECT_EQ(p.rng_draws, process.draws() + tx.draws() + lanes);
  EXPECT_EQ(report.metric(p, "delivery_rate"), static_cast<double>(ok) / 40.0);
}

TEST(ScenarioPrecision, EnvOverridesArmAdaptiveMode) {
  ASSERT_EQ(setenv("OCI_PRECISION", "0.05", 1), 0);
  ASSERT_EQ(setenv("OCI_MAX_SAMPLES", "700", 1), 0);
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 200;
  const RunReport report = ScenarioRunner().run(spec);
  unsetenv("OCI_PRECISION");
  unsetenv("OCI_MAX_SAMPLES");

  EXPECT_TRUE(report.adaptive);
  const RunPoint& p = report.points.front();
  EXPECT_LE(p.samples, 700u);
  const analysis::Estimate& ser = report.estimate(p, "ser");
  EXPECT_TRUE(ser.half_width() <= 0.05 || p.samples == 700u);

  // The env override FORCES an absolute target: a spec's own looser
  // relative / rare-event rules are cleared, not OR'd in.
  ASSERT_EQ(setenv("OCI_PRECISION", "0.004", 1), 0);
  ScenarioSpec loose = tiny_link_spec();
  loose.precision.enabled = true;
  loose.precision.target_half_width = 0.1;
  loose.precision.target_relative = 0.5;
  loose.precision.stop_below = 0.9;
  scenario::apply_precision_overrides(loose);
  unsetenv("OCI_PRECISION");
  EXPECT_DOUBLE_EQ(loose.precision.target_half_width, 0.004);
  EXPECT_DOUBLE_EQ(loose.precision.target_relative, 0.0);
  EXPECT_DOUBLE_EQ(loose.precision.stop_below, 0.0);

  // Garbled values read as unset; an overflowing cap is garbled too,
  // not 2^64 - 1.
  ASSERT_EQ(setenv("OCI_PRECISION", "tight", 1), 0);
  EXPECT_FALSE(scenario::precision_from_env().has_value());
  unsetenv("OCI_PRECISION");
  EXPECT_FALSE(scenario::max_samples_from_env().has_value());
  ASSERT_EQ(setenv("OCI_MAX_SAMPLES", "18446744073709551616", 1), 0);
  EXPECT_FALSE(scenario::max_samples_from_env().has_value());
  unsetenv("OCI_MAX_SAMPLES");
}

TEST(ScenarioPrecision, CliArgsConsumedAndExported) {
  char a0[] = "run_scenario";
  char a1[] = "--precision=0.02";
  char a2[] = "--max-samples";
  char a3[] = "999";
  char a4[] = "spec.file";
  char* argv[] = {a0, a1, a2, a3, a4, nullptr};
  int argc = 5;
  scenario::consume_precision_args(argc, argv);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "spec.file");
  ASSERT_TRUE(scenario::precision_from_env().has_value());
  EXPECT_DOUBLE_EQ(*scenario::precision_from_env(), 0.02);
  ASSERT_TRUE(scenario::max_samples_from_env().has_value());
  EXPECT_EQ(*scenario::max_samples_from_env(), 999u);
  unsetenv("OCI_PRECISION");
  unsetenv("OCI_MAX_SAMPLES");

  // An explicit but garbled override throws instead of silently
  // running the wrong experiment, and leaks nothing into the env.
  char g1[] = "--precision=fast";
  char* argv_bad[] = {a0, g1, nullptr};
  int argc_bad = 2;
  EXPECT_THROW(scenario::consume_precision_args(argc_bad, argv_bad),
               std::invalid_argument);
  EXPECT_FALSE(scenario::precision_from_env().has_value());
  char g2[] = "--max-samples=-3";
  char g3[] = "--max-samples=18446744073709551616";
  for (char* garbled : {g2, g3}) {
    char* argv_bad2[] = {a0, garbled, nullptr};
    int argc_bad2 = 2;
    EXPECT_THROW(scenario::consume_precision_args(argc_bad2, argv_bad2),
                 std::invalid_argument)
        << garbled;
    EXPECT_FALSE(scenario::max_samples_from_env().has_value());
  }
}

TEST(ScenarioSeed, EnvOverrideBeatsSpecSeed) {
  ASSERT_EQ(setenv("OCI_SEED", "777", 1), 0);
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 20;
  const RunReport report = ScenarioRunner().run(spec);
  unsetenv("OCI_SEED");
  EXPECT_EQ(report.seed, 777u);

  // Garbled values fall back to the spec seed. A sign or an overflow
  // is garbled too, not a seed near 2^64.
  for (const char* garbled : {"not-a-seed", "-7", "18446744073709551616"}) {
    ASSERT_EQ(setenv("OCI_SEED", garbled, 1), 0);
    const RunReport fallback = ScenarioRunner().run(spec);
    unsetenv("OCI_SEED");
    EXPECT_EQ(fallback.seed, kSeed) << garbled;
  }
}

TEST(ScenarioSeed, CliArgConsumedAndWins) {
  // The CLI seed must beat a CONFLICTING pre-existing OCI_SEED --
  // including inside a later ScenarioRunner::run(), which re-resolves
  // the seed itself. The consumed value travels as an explicit
  // in-process override (set_seed_override); the environment variable
  // must stay untouched, not be clobbered with the CLI value (the old
  // workaround, which leaked the override into child processes).
  ASSERT_EQ(setenv("OCI_SEED", "555", 1), 0);
  char a0[] = "bench";
  char a1[] = "--seed=4242";
  char a2[] = "--benchmark_filter=none";
  char* argv[] = {a0, a1, a2, nullptr};
  int argc = 3;
  EXPECT_EQ(scenario::resolve_seed(7, argc, argv), 4242u);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=none");
  ScenarioSpec spec = tiny_link_spec();
  spec.budget.samples = 20;
  EXPECT_EQ(ScenarioRunner().run(spec).seed, 4242u);
  ASSERT_NE(std::getenv("OCI_SEED"), nullptr);
  EXPECT_STREQ(std::getenv("OCI_SEED"), "555");  // environment untouched
  unsetenv("OCI_SEED");
  scenario::set_seed_override(std::nullopt);

  // Split form: --seed N.
  char b1[] = "--seed";
  char b2[] = "99";
  char* argv2[] = {a0, b1, b2, nullptr};
  int argc2 = 3;
  EXPECT_EQ(scenario::resolve_seed(7, argc2, argv2), 99u);
  EXPECT_EQ(argc2, 1);
  EXPECT_EQ(scenario::seed_override(), std::optional<std::uint64_t>(99u));
  scenario::set_seed_override(std::nullopt);

  // No flag, no env, no override: fallback.
  unsetenv("OCI_SEED");
  char* argv3[] = {a0, nullptr};
  int argc3 = 1;
  EXPECT_EQ(scenario::resolve_seed(7, argc3, argv3), 7u);

  // A garbled flag is consumed and falls back; -7 is not 2^64 - 7.
  char c1[] = "--seed=-7";
  char* argv4[] = {a0, c1, nullptr};
  int argc4 = 2;
  EXPECT_EQ(scenario::resolve_seed(7, argc4, argv4), 7u);
  EXPECT_EQ(argc4, 1);
  EXPECT_FALSE(scenario::seed_override().has_value());
}

}  // namespace
