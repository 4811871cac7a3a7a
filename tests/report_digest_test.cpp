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

constexpr unsigned kPinnedRevision = 11;
constexpr Golden kGolden[] = {
    {"scenario_bench/specs/link_bulk.spec",
     "332de852c7d08cff222152118dba36223d824f88c621124dd5234ab988841cf4"},
    {"scenario_bench/specs/link_rare.spec",
     "1472b9bdf50317dfa8e46ddb7761c4b674cd599f000786db6d2ee4973119e6dc"},
    {"scenarios/deep_ser.spec",
     "8c0f5c01de1ebfe9d46be40f3daa66bcb3a857d13c6205be87f21b3e76c5ea2b"},
    {"scenarios/degraded_link.spec",
     "d0675f64b794601f6cdc1aa40db5ab4ab7e4196e8edda2aa9b1a09714c5c22a1"},
    {"scenarios/link_jitter.spec",
     "21231f97bb89cb5c09c0ddc4baeb54df99fa30ca6840f398143b844777cf40a2"},
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
     "0daac6b3404cdcd74f15e0f7d4fda1719645cf0fd724e8fd4c4e5c35c583024c"},
    {"code_windows",
     "17c5317073b5af9d801b84f455f525780104b3dfdb7f2d5a94b84ae954d1c79e"},
    {"code_aggressors",
     "29b0544f06c0dabd44b1f60e0ef2f38e1f85812f26a0cdcc03b2177aefa25535"},
    {"code_split",
     "aaa126880376c294c4031c2692ff9e960c50e5562ef1aef9995d4e2795585aad"},
    {"code_frames",
     "4efab0da703ab0b21c9fd9c40383bdbf614ef2371b56dcb47e2b8c69edb205b7"},
    {"code_wdm_faults",
     "4040b3e94bf83b96ff053fb25bea0a5d543e601122084040c0f83ce29e49eb8e"},
    {"code_density",
     "717b8ff88d20b973d55c947622d5d695ca158a6736bc8ef766967b9eda242df3"},
    {"code_tdc_drift",
     "9bffd33db75e8f3902a08028bcb01c73429f49c185642f763a945240abb3e320"},
    {"code_noc_engine",
     "85eab874d3f8c13d0d93ad37c73ca099e797b109a9e6a60ece29989f82988088"},
    {"code_noc_fec_probe",
     "e6034a7dd38f52159531db735fe48c4af7a8c7bb66322171cd1d2a49de173276"},
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
