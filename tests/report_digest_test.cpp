// Golden report digests: the bits of every checked-in spec's report.
//
// Each scenarios/*.spec and scenario_bench/specs/*.spec runs through
// ScenarioRunner at repro scale 0.02 on 2 threads. Its schema-2 JSON,
// stripped of the fields that depend on the machine rather than on
// (spec, seed, repro scale) -- the "meta" line, ns_per_op and wall_ns
// -- hashes with SHA-256 to a digest pinned below for one
// kEngineRevision. Every other byte is pinned: metric values,
// intervals, accumulator state, sample and chunk counts, rng_draws and
// rare-event weights. A digest equals `sha256sum` of the same report
// written by `run_scenario run SPEC --out=F.json` under
// OCI_REPRO_SCALE=0.02 and stripped with
//   sed -E -e '/^  "meta": /d' -e 's/"ns_per_op": [^,]*, "wall_ns": [^,]*, //' F.json
//
// The result store keys chunks by spec hash and kEngineRevision, not by
// the binary, so a change that moves these bytes without a revision
// bump would serve stale chunks to new code. At the pinned revision a
// moved digest fails with "outputs moved without a kEngineRevision
// bump"; after a bump the test fails until the table is re-pinned from
// the one it prints. The libraries compile with -ffp-contract=off, so
// the digests do not depend on -march.
//
// No checked-in spec reaches the vertical bus, dark and flaky windows,
// aggressor pulses, multilevel splitting, frame traffic, the WDM link
// and its faults, code-density traffic, TDC drift or the NoC's coupled
// delivery models, so small specs written below pin those paths the
// same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/scenario/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace oci;

struct Golden {
  const char* spec;    ///< path below the source root, or a written spec's name
  const char* digest;  ///< sha256_hex of the stripped report JSON
};

constexpr unsigned kPinnedRevision = 10;
constexpr Golden kGolden[] = {
    {"scenario_bench/specs/link_bulk.spec",
     "e1e65d20707ed3e884bb2184ea91c434be7289294ff11c8e9dbff17a92ea312c"},
    {"scenario_bench/specs/link_rare.spec",
     "0f163537fbb2307f3bf4a6c6a772eae7f91693c5167538ad02745413e0d564e8"},
    {"scenarios/deep_ser.spec",
     "7f46cee5f6c391e6ff1a040654d5bef004149b39fe889a0cb6eb678846cddfdc"},
    {"scenarios/degraded_link.spec",
     "308e24177052263eac2e04a9a2f6070fbb2032a081c5434f84a003b5bfe5def1"},
    {"scenarios/link_jitter.spec",
     "c7b82c75d918f09816398e1dc8e10004e957bd69db12a1983f4231fb460a28e2"},
    {"scenarios/noc_node_failure.spec",
     "56afb0ca8e682e9d6c40661357ad04a8c3ae1d138c32e64dca389361a16a28dd"},
    {"scenarios/noc_saturation.spec",
     "64facc453e28393aff19ba321d8c8c8de1f1c6d8ab0513538aa39d8c07058b40"},
    {"scenarios/noc_thousand_node.spec",
     "5264667a098871423ab01b61a3f63cc348c769007ba6a8c24a0c850fa5cd7b1b"},
};

/// Spec texts for the paths no checked-in spec reaches, each run at a
/// few hundred samples per point. Aggressor pulses have no spec key:
/// code_aggressors gets two in code.
constexpr const char* kWrittenSpecs[] = {
    R"(name = code_bus
topology = vertical-bus
seed = 101
dies = 4
master = 1
samples = 300
repro_scaled = 0
sweep.jitter_ps = 60, 160
)",
    R"(name = code_windows
topology = point-to-point
seed = 102
bits_per_symbol = 4
fault.dark_window_probability = 0.05
fault.flaky_window_probability = 0.2
fault.flaky_attenuation_db = 8
samples = 400
repro_scaled = 0
)",
    R"(name = code_aggressors
topology = point-to-point
seed = 103
bits_per_symbol = 4
peak_power_uw = 2
samples = 400
repro_scaled = 0
)",
    R"(name = code_split
topology = point-to-point
seed = 104
bits_per_symbol = 6
dcr_hz = 10
variance.kind = split
variance.split_levels = 3
samples = 400
repro_scaled = 0
sweep.jitter_ps = 150, 300
)",
    R"(name = code_frames
topology = point-to-point
mode = frames
fec = hamming
seed = 105
bits_per_symbol = 4
payload_bytes = 12
jitter_ps = 200
samples = 30
repro_scaled = 0
)",
    R"(name = code_wdm_faults
topology = wdm
seed = 106
bits_per_symbol = 4
channels = 4
stack_dies = 4
from_die = 0
to_die = 3
fault.dead_channel_fraction = 0.25
fault.channel_attenuation_db = 3
fault.array_pixels = 16
fault.dead_pixel_fraction = 0.25
fault.hot_pixel_fraction = 0.125
samples = 200
repro_scaled = 0
)",
    R"(name = code_density
topology = point-to-point
mode = code-density
seed = 107
fine_elements = 32
coarse_bits = 3
samples = 20000
repro_scaled = 0
)",
    R"(name = code_tdc_drift
topology = point-to-point
seed = 108
bits_per_symbol = 6
jitter_ps = 100
fault.tdc_drift_c = 90
samples = 300
repro_scaled = 0
sweep.fault.recalibrate = 0, 1
)",
    R"(name = code_noc_engine
topology = stack-noc
seed = 109
dies = 4
mac = tdma
offered_load = 0.4
delivery = engine
jitter_ps = 20
samples = 200
repro_scaled = 0
)",
    R"(name = code_noc_fec_probe
topology = stack-noc
seed = 110
dies = 4
mac = token
offered_load = 0.4
delivery = fec-probe
probe_transfers = 20
samples = 300
repro_scaled = 0
)",
};

constexpr Golden kWrittenGolden[] = {
    {"code_bus",
     "38139c5ab9ea42a3bff311ba2a2b03a89a85956a300907b44acf1397c66b42e6"},
    {"code_windows",
     "60151346068432bbf4305230aa2475bafac74590a02e94c3cb0e0a11d70084ad"},
    {"code_aggressors",
     "6b8463bf1f304ae37f993396d3ba803fbde39c35c5096dddd175010c8fcd15ac"},
    {"code_split",
     "0de20595902b174486f44aeec1c4c774032d9c51c1c37c6c746ee6e7825bca3b"},
    {"code_frames",
     "f55ba8fb51056ce02bab07a3aae750b6de2b3be20e2868b77f5b8e84aa3f6c58"},
    {"code_wdm_faults",
     "002dd02206a4fcf70f04d497c9a91a43c3675eb940e0da2f553054a551f68a11"},
    {"code_density",
     "717b8ff88d20b973d55c947622d5d695ca158a6736bc8ef766967b9eda242df3"},
    {"code_tdc_drift",
     "2b8397bdbe2719b9740355bcc795b15bd5526fa7769dc40d51d407a5121ee88b"},
    {"code_noc_engine",
     "a15e6fcfa4c185d2692625e0fb53e39c127cecca343e890d53cf79df476f241e"},
    {"code_noc_fec_probe",
     "32e4f5e61ecf9e7643ef2411ff980d4a24d6022bc85a2439fb560d35a0c6c9a8"},
};

constexpr double kReproScale = 0.02;
constexpr std::size_t kThreads = 2;

/// The report as save() writes it, minus the machine-dependent fields.
std::string stripped_report_json(const scenario::RunReport& report, const fs::path& dir) {
  const fs::path path = dir / "report.json";
  scenario::report_io::save(report, path.string());
  std::ifstream in(path);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  \"meta\": ", 0) == 0) continue;
    // save() writes a point's timing as `"ns_per_op": X, "wall_ns": Y, `
    // right before its "iterations".
    if (const auto timing = line.find("\"ns_per_op\": "); timing != std::string::npos) {
      line.erase(timing, line.find("\"iterations\": ", timing) - timing);
    }
    out += line;
    out += '\n';
  }
  return out;
}

using NamedSpec = std::pair<std::string, scenario::ScenarioSpec>;

/// Runs every spec at kReproScale and fails on each digest that differs
/// from `golden`, printing the table to re-pin from.
void expect_pinned(const std::vector<NamedSpec>& specs, std::span<const Golden> golden) {
  // The spec's own seed and budget: no environment override applies.
  ::unsetenv("OCI_SEED");
  ::unsetenv("OCI_PRECISION");
  ::unsetenv("OCI_MAX_SAMPLES");
  analysis::set_repro_scale_for_test(kReproScale);
  const fs::path temp = fs::path(::testing::TempDir()) / "oci_report_digest";
  fs::create_directories(temp);

  const scenario::ScenarioRunner runner(kThreads);
  std::ostringstream table;
  std::vector<std::string> moved;
  for (const auto& [name, spec] : specs) {
    const std::string digest =
        scenario::sha256_hex(stripped_report_json(runner.run(spec), temp));
    table << "    {\"" << name << "\",\n     \"" << digest << "\"},\n";
    const auto pinned = std::find_if(golden.begin(), golden.end(),
                                     [&](const Golden& g) { return name == g.spec; });
    if (pinned == golden.end() || digest != pinned->digest) moved.push_back(name);
  }
  analysis::set_repro_scale_for_test(std::nullopt);
  fs::remove_all(temp);

  if (scenario::kEngineRevision != kPinnedRevision) {
    FAIL() << "kEngineRevision is " << scenario::kEngineRevision
           << " but the digests are pinned at " << kPinnedRevision
           << "; re-pin kPinnedRevision = " << scenario::kEngineRevision << " and the table:\n"
           << table.str();
  }
  for (const std::string& name : moved) {
    ADD_FAILURE() << name << ": outputs moved without a kEngineRevision bump";
  }
  if (!moved.empty()) {
    ADD_FAILURE() << "digests at revision " << scenario::kEngineRevision << ":\n" << table.str();
  }
}

TEST(ReportDigest, CheckedInSpecsMatchThePinnedRevision) {
  const fs::path root = OCI_SOURCE_DIR;
  std::vector<std::string> paths;
  for (const char* dir : {"scenarios", "scenario_bench/specs"}) {
    for (const auto& entry : fs::directory_iterator(root / dir)) {
      if (entry.path().extension() == ".spec") {
        paths.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_EQ(paths.size(), 8u) << "a checked-in spec was added or removed; re-pin the table";

  std::vector<NamedSpec> specs;
  for (const std::string& path : paths) {
    specs.emplace_back(path, scenario::parse_spec_file((root / path).string()));
  }
  expect_pinned(specs, kGolden);
}

TEST(ReportDigest, WrittenSpecsMatchThePinnedRevision) {
  std::vector<NamedSpec> specs;
  for (const char* text : kWrittenSpecs) {
    std::istringstream in(text);
    scenario::ScenarioSpec spec = scenario::parse_spec(in, "written spec");
    if (spec.name == "code_aggressors") {
      spec.aggressors = {{.mean_photons = 3.0, .offset_ps = 250.0},
                         {.mean_photons = 0.5, .offset_ps = 1900.0}};
    }
    spec.validate();
    specs.emplace_back(spec.name, std::move(spec));
  }
  expect_pinned(specs, kWrittenGolden);
}

}  // namespace
