// Tests for the scenario text-spec parser: the key=value format,
// sweep axis expressions (lists, linear/log ranges, categorical
// detection), error reporting with line numbers, a parsed-spec -> run
// round trip, and the reference page's coverage of every key.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "oci/scenario/parse.hpp"
#include "oci/scenario/runner.hpp"

namespace {

using namespace oci;
using scenario::parse_spec_file;
using scenario::ScenarioSpec;

/// Parses spec text through the stream parser run_scenario uses.
ScenarioSpec parse_text(const std::string& text, const std::string& source = "spec") {
  std::istringstream in(text);
  return scenario::parse_spec(in, source);
}

TEST(ScenarioParse, FullSpecRoundTrip) {
  const std::string text = R"(
# a link experiment
name        = parse_demo
description = jitter scan          # trailing comment
topology    = point-to-point
seed        = 1234
bits_per_symbol = 6
calibrate   = 0
jitter_ps   = 55
samples     = 300
repro_scaled = 0
sweep.jitter_ps = 40, 80, 120
)";
  const ScenarioSpec spec = parse_text(text);
  EXPECT_EQ(spec.name, "parse_demo");
  EXPECT_EQ(spec.description, "jitter scan");
  EXPECT_EQ(spec.topology, scenario::Topology::kPointToPoint);
  EXPECT_EQ(spec.seed, 1234u);
  EXPECT_EQ(spec.device.bits_per_symbol, 6u);
  EXPECT_FALSE(spec.device.calibrate);
  EXPECT_DOUBLE_EQ(spec.device.spad.jitter_sigma.picoseconds(), 55.0);
  EXPECT_EQ(spec.budget.samples, 300u);
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].param, "jitter_ps");
  EXPECT_EQ(spec.sweep[0].values, (std::vector<double>{40.0, 80.0, 120.0}));
  EXPECT_NO_THROW(spec.validate());

  const scenario::RunReport report = scenario::ScenarioRunner().run(spec);
  EXPECT_EQ(report.points.size(), 3u);
  EXPECT_EQ(report.seed, 1234u);
}

TEST(ScenarioParse, RangeExpressions) {
  const ScenarioSpec spec = parse_text(
      "sweep.offered_load = linear(0.2, 1.0, 5)\n"
      "sweep.samples = log(10, 1000, 3)\n");
  ASSERT_EQ(spec.sweep.size(), 2u);
  ASSERT_EQ(spec.sweep[0].size(), 5u);
  EXPECT_DOUBLE_EQ(spec.sweep[0].values.front(), 0.2);
  EXPECT_DOUBLE_EQ(spec.sweep[0].values.back(), 1.0);
  ASSERT_EQ(spec.sweep[1].size(), 3u);
  EXPECT_NEAR(spec.sweep[1].values[1], 100.0, 1e-9);
}

TEST(ScenarioParse, CategoricalAxisDetection) {
  const ScenarioSpec spec = parse_text(
      "topology = stack-noc\n"
      "sweep.mac = tdma, token, aloha\n");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_TRUE(spec.sweep[0].categorical());
  EXPECT_EQ(spec.sweep[0].labels,
            (std::vector<std::string>{"tdma", "token", "aloha"}));
}

TEST(ScenarioParse, CategoricalParamWithNumericLookingValues) {
  // tech_node names can be digit-led ("65nm"); the axis must stay
  // categorical because the spec table says the key is categorical.
  const ScenarioSpec spec = parse_text("sweep.tech_node = 65nm, 45nm\n");
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_TRUE(spec.sweep[0].categorical());
}

// A second axis over one key once ran: every point was labelled with
// both values and simulated at the later axis's.
TEST(ScenarioParse, RepeatedSweepKeyFailsValidation) {
  const ScenarioSpec spec = parse_text(
      "topology = p2p\n"
      "calibrate = 0\n"
      "samples = 20000\n"
      "sweep.jitter_ps = 40, 400\n"
      "sweep.jitter_ps = 400\n");
  ASSERT_EQ(spec.sweep.size(), 2u);
  try {
    spec.validate();
    FAIL() << "expected the repeated sweep axis to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'jitter_ps'"), std::string::npos) << e.what();
  }
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  try {
    (void)parse_text("name = ok\nthis line has no equals\n", "demo.spec");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.spec:2"), std::string::npos);
  }

  // Unknown scalar keys are hard errors with a file:line prefix -- a
  // typo must never silently run the wrong experiment (run_scenario
  // turns this into a non-zero exit).
  try {
    (void)parse_text("name = ok\njiter_ps = 40\n", "demo.spec");
    FAIL() << "expected parse error for unknown key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'jiter_ps'"), std::string::npos) << msg;
  }

  EXPECT_THROW((void)parse_text("sweep.nope = 1, 2\n"), std::runtime_error);
  EXPECT_THROW((void)parse_text("jitter_ps = \n"), std::runtime_error);
  EXPECT_THROW((void)parse_text("sweep.jitter_ps = linear(1, 2)\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("sweep.samples = log(0, 10, 3)\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("topology = mesh\n"), std::runtime_error);
  EXPECT_THROW((void)parse_spec_file("/nonexistent/x.spec"), std::runtime_error);
}

TEST(ScenarioParse, RejectsNonFiniteNumbersAndOversizedCounts) {
  // Each of these once parsed and ran: NaN as a SER-1 link, a count
  // wrapped into its 32-bit field (4294967300 -> 4), or an out-of-range
  // double cast to an integer. Each must now fail with file:line.
  const char* const bad[] = {
      "jitter_ps = nan",
      "sweep.jitter_ps = nan, 40",
      "sweep.jitter_ps = 40, inf",
      "bits_per_symbol = 4294967300",
      "coarse_bits = 4294967296",
      "alloc.rounds = 4294967296",
      "max_attempts = 4294967296",
      "variance.split_levels = 4294967296",
      "samples = inf",
      "samples = 1e30",
      "sweep.jitter_ps = linear(40, 80, 1e30)",
      "sweep.jitter_ps = linear(nan, 80, 3)",
      "sweep.jitter_ps = log(40, inf, 3)",
      "fault.salt = 9007199254740993",
  };
  for (const char* line : bad) {
    SCOPED_TRACE(line);
    try {
      (void)parse_text(std::string("name = ok\n") + line + "\n", "bad.spec");
      ADD_FAILURE() << "expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad.spec:2"), std::string::npos) << e.what();
    }
  }
  // The largest exact count still parses, and the narrowed field keeps
  // its full range.
  EXPECT_EQ(parse_text("fault.salt = 9007199254740991\n").fault.salt,
            9007199254740991u);
  EXPECT_EQ(parse_text("max_attempts = 4294967295\n").noc.max_attempts, 4294967295u);
}

TEST(ScenarioParse, UnsignedIntegersParseStrictly) {
  // One parser for every unsigned value from outside the process:
  // digits only, no sign, no padding, nothing trailing, no overflow.
  EXPECT_EQ(scenario::parse_uint("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(scenario::parse_uint("18446744073709551615"),
            std::optional<std::uint64_t>(UINT64_MAX));
  for (const char* bad : {"", "-7", "+7", " 7", "7 ", "7x", "1.5", "1e3", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(scenario::parse_uint(bad).has_value()) << bad;
  }
  // The spec's seed key is that parser.
  EXPECT_EQ(parse_text("seed = 18446744073709551615\n").seed, UINT64_MAX);
  for (const char* bad : {"seed = -1", "seed = +5", "seed = 1.5",
                          "seed = 18446744073709551616"}) {
    EXPECT_THROW((void)parse_text(bad), std::runtime_error) << bad;
  }
}

TEST(ScenarioParse, PrecisionKeysParse) {
  const ScenarioSpec spec = parse_text(
      "name = adaptive\n"
      "precision.metric = ser\n"
      "precision.half_width = 0.01\n"
      "precision.relative = 0.1\n"
      "precision.chunk = 500\n"
      "precision.min_samples = 500\n"
      "precision.max_samples = 32000\n"
      "precision.confidence_z = 2.576\n");
  EXPECT_TRUE(spec.precision.enabled);
  EXPECT_EQ(spec.precision.metric, "ser");
  EXPECT_DOUBLE_EQ(spec.precision.target_half_width, 0.01);
  EXPECT_DOUBLE_EQ(spec.precision.target_relative, 0.1);
  EXPECT_EQ(spec.precision.chunk, 500u);
  EXPECT_EQ(spec.precision.min_samples, 500u);
  EXPECT_EQ(spec.precision.max_samples, 32000u);
  EXPECT_DOUBLE_EQ(spec.precision.confidence_z, 2.576);

  const ScenarioSpec off =
      parse_text("precision.half_width = 0.01\nprecision.enabled = 0\n");
  EXPECT_FALSE(off.precision.enabled);
}

TEST(ScenarioParse, FaultKeysParse) {
  const ScenarioSpec spec = parse_text(
      "name = degraded\n"
      "calibrate = 0\n"
      "fault.dead_pixel_fraction = 0.25\n"
      "fault.hot_pixel_fraction = 0.1\n"
      "fault.hot_pixel_dcr_hz = 2e6\n"
      "fault.array_pixels = 128\n"
      "fault.mask_hot_pixels = 0\n"
      "fault.tdc_drift_c = 12.5\n"
      "fault.recalibrate = 0\n"
      "fault.salt = 7\n"
      "sweep.fault.dead_pixel_fraction = linear(0, 0.5, 6)\n");
  EXPECT_DOUBLE_EQ(spec.fault.dead_pixel_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.fault.hot_pixel_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.fault.hot_pixel_dcr_hz, 2e6);
  EXPECT_EQ(spec.fault.array_pixels, 128u);
  EXPECT_FALSE(spec.fault.mask_hot_pixels);
  EXPECT_DOUBLE_EQ(spec.fault.tdc_drift_c, 12.5);
  EXPECT_FALSE(spec.fault.recalibrate);
  EXPECT_EQ(spec.fault.salt, 7u);
  ASSERT_EQ(spec.sweep.size(), 1u);
  EXPECT_EQ(spec.sweep[0].param, "fault.dead_pixel_fraction");
  ASSERT_EQ(spec.sweep[0].size(), 6u);
  EXPECT_NO_THROW(spec.validate());

  // A typo'd fault key is a hard error with a file:line prefix, same as
  // every other unknown key.
  try {
    (void)parse_text("name = ok\nfault.bogus = 1\n", "demo.spec");
    FAIL() << "expected parse error for unknown fault key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'fault.bogus'"), std::string::npos) << msg;
  }
  // Malformed values and out-of-range parameters also fail loudly.
  EXPECT_THROW((void)parse_text("fault.tdc_drift_c = warm\n"), std::runtime_error);
  const ScenarioSpec bad = parse_text("fault.dead_pixel_fraction = 1.5\n");
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(ScenarioParse, ImpossibleTdcDriftNamesTheKey) {
  // 1 + 2e-3 * (20 - 700 - 20) < 0: the drifted delay line would have a
  // non-positive delay. validate() must say so before any worker runs.
  const ScenarioSpec bad = parse_text("name = cold\nfault.tdc_drift_c = -700\n");
  try {
    bad.validate();
    FAIL() << "expected validate() to reject fault.tdc_drift_c = -700";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fault.tdc_drift_c"), std::string::npos) << e.what();
  }
  // Cold but physical drifts stay valid.
  EXPECT_NO_THROW(parse_text("name = cool\nfault.tdc_drift_c = -400\n").validate());
}

TEST(ScenarioParse, VarianceKeysParse) {
  const ScenarioSpec spec = parse_text(
      "name = rare\n"
      "calibrate = 0\n"
      "variance.kind = tilt\n"
      "variance.jitter_tilt = 2.5\n"
      "variance.noise_tilt = 3\n"
      "sweep.jitter_ps = 60, 120\n"
      "sweep.variance.kind = none, tilt\n");
  EXPECT_EQ(spec.variance.kind, rare::Kind::kTilt);
  EXPECT_DOUBLE_EQ(spec.variance.jitter_tilt, 2.5);
  EXPECT_DOUBLE_EQ(spec.variance.noise_tilt, 3.0);
  ASSERT_EQ(spec.sweep.size(), 2u);
  EXPECT_EQ(spec.sweep[1].param, "variance.kind");
  EXPECT_NO_THROW(spec.validate());

  const ScenarioSpec split = parse_text(
      "variance.kind = split\n"
      "variance.levels = 3:2:1:0.5\n"
      "variance.split_levels = 4\n");
  EXPECT_EQ(split.variance.kind, rare::Kind::kSplit);
  EXPECT_EQ(split.variance.levels, "3:2:1:0.5");
  EXPECT_EQ(split.variance.split_levels, 4u);
  EXPECT_NO_THROW(split.validate());

  // Unknown variance keys die with file:line, like every other family.
  try {
    (void)parse_text("name = ok\nvariance.bogus = 1\n", "demo.spec");
    FAIL() << "expected parse error for unknown variance key";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("demo.spec:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown parameter 'variance.bogus'"), std::string::npos)
        << msg;
  }
  // A typo'd level schedule fails at set time, carrying the file:line.
  try {
    (void)parse_text("variance.levels = 3;2;1\n", "demo.spec");
    FAIL() << "expected parse error for malformed level schedule";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.spec:1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_text("variance.kind = quantum\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("variance.levels = 1:2:3\n"),
               std::runtime_error);  // must strictly decrease
}

TEST(ScenarioParse, VarianceValidationRejectsBadCombinations) {
  const auto invalid = [](const std::string& text) {
    const ScenarioSpec spec = parse_text(text);
    EXPECT_THROW(spec.validate(), std::invalid_argument) << text;
  };
  // Tilt factors must be positive; a tilt that is crude MC in disguise
  // and a tilt carrying a splitting schedule are both config bugs.
  invalid("variance.kind = tilt\nvariance.jitter_tilt = 0\n");
  invalid("variance.kind = tilt\nvariance.jitter_tilt = -2\n");
  invalid("variance.kind = tilt\n");  // both factors at 1
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "variance.levels = 3:2:1\n");
  // Split rejects tilt factors and needs a schedule from somewhere.
  invalid("variance.kind = split\nvariance.jitter_tilt = 2\n");
  invalid("variance.kind = split\nvariance.split_levels = 0\n");
  // The engines drive the scalar point-to-point symbol path only.
  invalid(
      "topology = stack-noc\nvariance.kind = tilt\n"
      "variance.jitter_tilt = 2\n");
  invalid(
      "mode = code-density\nvariance.kind = tilt\n"
      "variance.jitter_tilt = 2\n");
  {
    ScenarioSpec spec =
        parse_text("variance.kind = tilt\nvariance.jitter_tilt = 2\n");
    spec.aggressors.push_back({1.5, 40.0});
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "fault.dark_window_probability = 0.1\n");
  // Weighted acceleration targets rate metrics; deterministic means
  // make no sense as adaptive precision targets under weighting.
  invalid(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "precision.metric = throughput_bps\nprecision.half_width = 1\n");
  // And the well-formed neighbours of each rejection stay valid.
  const ScenarioSpec ok = parse_text(
      "variance.kind = tilt\nvariance.jitter_tilt = 2\n"
      "precision.metric = ser\nprecision.half_width = 0.001\n");
  EXPECT_NO_THROW(ok.validate());
}

TEST(ScenarioParse, CheckedInSpecFilesParseAndValidate) {
  // The CI job runs these through tools/run_scenario; parsing must not
  // rot. The test binary runs from build/tests, so walk up to the repo
  // root where ctest executes (WORKING_DIRECTORY is the binary dir) --
  // use the source-relative path baked in by CMake instead.
#ifdef OCI_SOURCE_DIR
  const std::string root = OCI_SOURCE_DIR;
  for (const std::string name :
       {"link_jitter", "noc_saturation", "degraded_link", "noc_node_failure",
        "deep_ser"}) {
    const ScenarioSpec spec = parse_spec_file(root + "/scenarios/" + name + ".spec");
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate());
    EXPECT_GE(spec.sweep.size(), 1u);
  }
#else
  GTEST_SKIP() << "OCI_SOURCE_DIR not defined";
#endif
}

TEST(ScenarioParse, ReferencePageDocumentsEveryKey) {
  // docs/scenario-spec-reference.md has one table row per key,
  // "| `key` | type | meaning |". Every key needs its row, and the row
  // says `cat` exactly when the key takes labels.
  const std::string page = std::string(OCI_SOURCE_DIR) + "/docs/scenario-spec-reference.md";
  std::ifstream in(page);
  ASSERT_TRUE(in) << "cannot open " << page;
  std::map<std::string, std::string> type_of;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t tick = line.find('`', 3);
    const std::size_t bar = line.find('|', tick);
    const std::size_t end = line.find('|', bar + 1);
    ASSERT_NE(end, std::string::npos) << line;
    std::string type = line.substr(bar + 1, end - bar - 1);
    type.erase(0, type.find_first_not_of(' '));
    type.erase(type.find_last_not_of(' ') + 1);
    type_of[line.substr(3, tick - 3)] = type;
  }
  for (const std::string& key : scenario::known_params()) {
    const auto row = type_of.find(key);
    if (row == type_of.end()) {
      ADD_FAILURE() << "key '" << key << "' has no row in " << page;
      continue;
    }
    EXPECT_EQ(row->second == "cat", scenario::is_categorical_param(key))
        << "key '" << key << "' is typed '" << row->second << "' in " << page;
  }
}

}  // namespace
