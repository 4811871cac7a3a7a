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
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
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
  const char* spec;    ///< path below the source root
  const char* digest;  ///< sha256_hex of the stripped report JSON
};

constexpr unsigned kPinnedRevision = 9;
constexpr Golden kGolden[] = {
    {"scenario_bench/specs/link_bulk.spec",
     "65799b4d886ef9c8d4f54b7f5a61cf0d5f193dc81bf9636a3f3f58982d5cd3ab"},
    {"scenario_bench/specs/link_rare.spec",
     "efda6ad23bd13bfac24287bf0f15a8727c8496e1538192c0467adfb55654ad23"},
    {"scenarios/deep_ser.spec",
     "dc6ab5e2bbd6c85510f8c7396a9d66951e3aab0b28966316fdeba1a780cc8559"},
    {"scenarios/degraded_link.spec",
     "308e24177052263eac2e04a9a2f6070fbb2032a081c5434f84a003b5bfe5def1"},
    {"scenarios/link_jitter.spec",
     "94f90b0ded9587c63c1b9e43800e7d8edd3636bb9d62e27fc7b7f43c2778f248"},
    {"scenarios/noc_node_failure.spec",
     "56afb0ca8e682e9d6c40661357ad04a8c3ae1d138c32e64dca389361a16a28dd"},
    {"scenarios/noc_saturation.spec",
     "64facc453e28393aff19ba321d8c8c8de1f1c6d8ab0513538aa39d8c07058b40"},
    {"scenarios/noc_thousand_node.spec",
     "5264667a098871423ab01b61a3f63cc348c769007ba6a8c24a0c850fa5cd7b1b"},
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

TEST(ReportDigest, CheckedInSpecsMatchThePinnedRevision) {
  // The spec's own seed and budget: no environment override applies.
  ::unsetenv("OCI_SEED");
  ::unsetenv("OCI_PRECISION");
  ::unsetenv("OCI_MAX_SAMPLES");
  analysis::set_repro_scale_for_test(kReproScale);
  const fs::path temp = fs::path(::testing::TempDir()) / "oci_report_digest";
  fs::create_directories(temp);

  const fs::path root = OCI_SOURCE_DIR;
  std::vector<std::string> specs;
  for (const char* dir : {"scenarios", "scenario_bench/specs"}) {
    for (const auto& entry : fs::directory_iterator(root / dir)) {
      if (entry.path().extension() == ".spec") {
        specs.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_EQ(specs.size(), 8u) << "a checked-in spec was added or removed; re-pin the table";

  const scenario::ScenarioRunner runner(kThreads);
  std::ostringstream table;
  std::vector<std::string> moved;
  for (const std::string& spec : specs) {
    const scenario::RunReport report =
        runner.run(scenario::parse_spec_file((root / spec).string()));
    const std::string digest = scenario::sha256_hex(stripped_report_json(report, temp));
    table << "    {\"" << spec << "\",\n     \"" << digest << "\"},\n";
    const auto pinned = std::find_if(std::begin(kGolden), std::end(kGolden),
                                     [&](const Golden& g) { return spec == g.spec; });
    if (pinned == std::end(kGolden) || digest != pinned->digest) moved.push_back(spec);
  }
  analysis::set_repro_scale_for_test(std::nullopt);
  fs::remove_all(temp);

  if (scenario::kEngineRevision != kPinnedRevision) {
    FAIL() << "kEngineRevision is " << scenario::kEngineRevision
           << " but the digests are pinned at " << kPinnedRevision
           << "; re-pin kPinnedRevision = " << scenario::kEngineRevision << " and kGolden:\n"
           << table.str();
  }
  for (const std::string& spec : moved) {
    ADD_FAILURE() << spec << ": outputs moved without a kEngineRevision bump";
  }
  if (!moved.empty()) {
    ADD_FAILURE() << "digests at revision " << scenario::kEngineRevision << ":\n" << table.str();
  }
}

}  // namespace
