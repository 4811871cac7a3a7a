// run_scenario: the scenario service CLI. Executes declarative
// experiment descriptions with no recompilation, with a
// content-addressed result cache, sharded sweeps and partial-report
// merging behind four subcommands:
//
//   $ run_scenario run SPEC_FILE [--seed=N] [--precision=H]
//                  [--max-samples=N] [--out=PATH] [--shard=I/N]
//                  [--cache=DIR] [--dump-spec]
//   $ run_scenario merge [--out=PATH] [--allow-partial] PARTIAL.json...
//   $ run_scenario hash SPEC_FILE...
//   $ run_scenario cache-gc DIR [--max-age-days=D] [--dry-run]
//
// run: loads the spec (see oci/scenario/parse.hpp for the format),
// resolves the seed/precision overrides (CLI beats OCI_SEED /
// OCI_PRECISION / OCI_MAX_SAMPLES beats the file), runs it through
// ScenarioRunner -- consulting the --cache / OCI_SCENARIO_CACHE result
// store chunk by chunk, so a killed run resumes where it stopped --
// prints the metric table, and writes the schema-2 BENCH json
// trajectory document. --shard=i/N executes every Nth sweep point
// starting at i and writes a partial report for `merge` to fold.
//
// merge: folds shard partials (and repeat runs under different seeds)
// into the document an equivalent single run would have written --
// disjoint points pass through verbatim, coincident points pool their
// accumulator state.
//
// hash: prints each spec's content hash (the cache key prefix).
//
// cache-gc: removes cache entries older than --max-age-days.
//
// Exit codes: 0 success, 1 bad usage, 2 spec/run error.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/scenario/merge.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/scenario/store.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: run_scenario run SPEC_FILE [--seed=N] [--precision=H] [--max-samples=N]\n"
        "                    [--out=PATH] [--shard=I/N] [--cache=DIR] [--dump-spec]\n"
        "       run_scenario merge [--out=PATH] [--allow-partial] PARTIAL.json...\n"
        "       run_scenario hash SPEC_FILE...\n"
        "       run_scenario cache-gc DIR [--max-age-days=D] [--dry-run]\n"
        "\n"
        "run -- execute a scenario spec:\n"
        "  SPEC_FILE        key = value scenario description (# comments,\n"
        "                   sweep.<param> = v1, v2 | linear(lo,hi,n) | log(lo,hi,n))\n"
        "  --seed=N         override the spec's seed (OCI_SEED works too)\n"
        "  --precision=H    adaptive mode: target CI half-width on the stop\n"
        "                   metric (OCI_PRECISION works too; CLI wins)\n"
        "  --max-samples=N  cap the adaptive per-point budget (OCI_MAX_SAMPLES)\n"
        "  --out=PATH       BENCH json path (default BENCH_scenario_<name>.json,\n"
        "                   or ...shard<i>of<N>.json for a sharded run)\n"
        "  --shard=I/N      run sweep points {I, I+N, ...} only; emit a partial\n"
        "                   report for `merge` (deterministic: bit-identical to\n"
        "                   the same points of an unsharded run)\n"
        "  --cache=DIR      content-addressed result store (OCI_SCENARIO_CACHE\n"
        "                   works too); cached chunks skip simulation, so a\n"
        "                   killed run resumes and a warm re-run is free\n"
        "  --dump-spec      list the known parameter-registry keys and exit\n"
        "\n"
        "merge -- fold partial reports into one document:\n"
        "  --out=PATH       merged json path (default BENCH_scenario_<name>.json)\n"
        "  --allow-partial  accept a union that misses sweep points\n"
        "\n"
        "hash -- print each spec's content hash (the result-store key prefix)\n"
        "\n"
        "cache-gc -- prune a result store by age:\n"
        "  --max-age-days=D remove entries older than D days (default 14)\n"
        "  --dry-run        report what would be removed without removing\n";
}

int cmd_run(int argc, char** argv) {
  using namespace oci;

  std::string spec_path;
  std::string out_path;
  bool dump = false;
  scenario::ShardSpec shard;
  std::optional<std::string> cache_dir;
  // Consumed first (and re-exported as their env vars) so the
  // precedence matches the seed's: CLI beats env beats spec, applied
  // inside ScenarioRunner::run.
  try {
    scenario::consume_precision_args(argc, argv);
    if (const auto s = scenario::consume_shard_arg(argc, argv)) shard = *s;
    cache_dir = scenario::resolve_cache_dir(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "run_scenario: " << e.what() << "\n";
    usage(std::cerr);
    return 1;
  }
  // --seed= is consumed (and applied) by resolve_seed below.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--dump-spec") {
      dump = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      // handled later by resolve_seed
    } else if (arg == "--seed") {
      // Split form (--seed N), handled later by resolve_seed; a bare
      // --seed before another flag takes no value there either.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) ++i;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "run_scenario: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 1;
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::cerr << "run_scenario: more than one spec file given\n";
      usage(std::cerr);
      return 1;
    }
  }

  if (dump) {
    std::cout << "known scenario parameters:\n";
    for (const std::string& key : scenario::known_params()) {
      std::cout << "  " << key << (scenario::is_categorical_param(key) ? "  (categorical)" : "")
                << "\n";
    }
    return 0;
  }
  if (spec_path.empty()) {
    usage(std::cerr);
    return 1;
  }

  try {
    scenario::ScenarioSpec spec = scenario::parse_spec_file(spec_path);
    spec.seed = scenario::resolve_seed(spec.seed, argc, argv);
    spec.validate();

    analysis::print_banner(std::cout, "scenario: " + spec.name,
                           spec.description.empty()
                               ? std::string(scenario::to_string(spec.topology)) +
                                     " experiment from " + spec_path
                               : spec.description,
                           spec.seed);

    scenario::RunOptions options;
    options.shard = shard;
    std::optional<scenario::FsResultStore> store;
    if (cache_dir) {
      store.emplace(*cache_dir);
      options.store = &*store;
    }
    const scenario::ScenarioRunner runner;
    const scenario::RunReport report = runner.run(spec, options);
    report.print(std::cout);
    // Variance-reduction diagnostics for rare-event points
    // (variance.kind != none): the effective crude-MC sample count the
    // weighted estimate is worth, the weight spread, and the estimator-
    // variance speedup over crude MC at the same budget. Every figure
    // is a pure function of (spec, seed), so this block is safely
    // inside the CI-diffed deterministic stdout.
    bool any_weighted = false;
    for (const auto& p : report.points) any_weighted |= p.weights.active();
    if (any_weighted) {
      std::size_t ser_m = report.metric_names.size();
      for (std::size_t m = 0; m < report.metric_names.size(); ++m) {
        if (report.metric_names[m] == "ser") {
          ser_m = m;
          break;
        }
      }
      std::cout << "variance reduction (vs crude MC at the same budget):\n";
      for (const auto& p : report.points) {
        if (!p.weights.active()) continue;
        std::ostringstream line;
        line << "  " << p.label(report.axis_names) << ": n_eff=" << std::fixed
             << std::setprecision(1) << p.weights.n_eff() << ", weight_cv="
             << std::setprecision(3) << p.weights.weight_cv();
        if (ser_m < p.metrics.size() && p.samples > 0) {
          const auto n = static_cast<double>(p.samples);
          const double phat = p.metrics[ser_m];
          const double var_acc = (p.err_weight_sq / n - phat * phat) / n;
          const double var_crude = phat * (1.0 - phat) / n;
          if (var_acc > 0.0 && var_crude > 0.0) {
            line << ", speedup=" << std::setprecision(1) << var_crude / var_acc
                 << "x";
          }
        }
        std::cout << line.str() << "\n";
      }
    }
    if (store) {
      // Cache traffic is informational, and printed only when a store
      // is actually configured: the deterministic table above must stay
      // byte-identical with and without a cache.
      std::cout << "cache: " << report.cache_hits << " chunk(s) hit, "
                << report.cache_misses << " missed (" << *cache_dir << ")\n";
      if (report.cache_save_failures > 0) {
        std::cout << "cache: " << report.cache_save_failures
                  << " chunk(s) FAILED to persist -- next run re-simulates them\n";
      }
    }

    std::string out = out_path;
    if (out.empty()) {
      out = "BENCH_scenario_" + report.scenario;
      if (shard.active()) {
        out += ".shard" + std::to_string(shard.index) + "of" +
               std::to_string(shard.count);
      }
      out += ".json";
    }
    scenario::report_io::save(report, out);
    std::cout << "\nwrote " << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "run_scenario: " << e.what() << "\n";
    return 2;
  }
}

int cmd_merge(int argc, char** argv) {
  using namespace oci;

  std::string out_path;
  scenario::MergeOptions options;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--allow-partial") {
      options.allow_partial = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "run_scenario: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 1;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "run_scenario: merge needs at least one partial report\n";
    usage(std::cerr);
    return 1;
  }

  try {
    std::vector<scenario::RunReport> parts;
    parts.reserve(inputs.size());
    for (const std::string& path : inputs) {
      parts.push_back(scenario::report_io::load(path));
    }
    const scenario::RunReport merged = scenario::merge_reports(parts, options);
    merged.print(std::cout);

    const std::string out =
        out_path.empty() ? "BENCH_scenario_" + merged.scenario + ".json" : out_path;
    scenario::report_io::save(merged, out);
    std::cout << "\nmerged " << inputs.size() << " report(s) covering "
              << merged.points.size() << " of " << merged.points_total
              << " sweep point(s)\nwrote " << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "run_scenario: " << e.what() << "\n";
    return 2;
  }
}

int cmd_hash(int argc, char** argv) {
  using namespace oci;

  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    inputs.push_back(arg);
  }
  if (inputs.empty()) {
    std::cerr << "run_scenario: hash needs at least one spec file\n";
    usage(std::cerr);
    return 1;
  }
  try {
    for (const std::string& path : inputs) {
      scenario::ScenarioSpec spec = scenario::parse_spec_file(path);
      // Hash what a run would execute: same seed/precision resolution
      // as ScenarioRunner::run (the seed is excluded from the hash but
      // the precision overrides are part of the experiment).
      spec.seed = scenario::resolve_seed(spec.seed);
      spec.validate();
      scenario::apply_precision_overrides(spec);
      std::cout << scenario::spec_hash(spec) << "  " << path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "run_scenario: " << e.what() << "\n";
    return 2;
  }
}

int cmd_cache_gc(int argc, char** argv) {
  using namespace oci;

  std::string root;
  double max_age_days = 14.0;
  bool dry_run = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg.rfind("--max-age-days=", 0) == 0) {
      char* end = nullptr;
      const std::string value = arg.substr(15);
      max_age_days = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() ||
          !std::isfinite(max_age_days) || max_age_days < 0) {
        std::cerr << "run_scenario: --max-age-days expects a finite non-negative "
                  << "number, got '" << value << "'\n";
        return 1;
      }
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "run_scenario: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 1;
    } else if (root.empty()) {
      root = arg;
    } else {
      std::cerr << "run_scenario: more than one cache directory given\n";
      usage(std::cerr);
      return 1;
    }
  }
  if (root.empty()) {
    std::cerr << "run_scenario: cache-gc needs the cache directory\n";
    usage(std::cerr);
    return 1;
  }
  const scenario::GcReport report = scenario::cache_gc(root, max_age_days, dry_run);
  std::cout << "cache-gc " << root << ": scanned " << report.scanned << ", "
            << (dry_run ? "would remove " : "removed ") << report.removed << " ("
            << report.bytes_freed << " bytes), kept " << report.kept << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 1;
  }
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    usage(std::cout);
    return 0;
  }
  if (first == "run") {
    // Shift the subcommand out so cmd_run's flag loop (and the
    // consume_* helpers, which scan from argv[1]) see only its args.
    return cmd_run(argc - 1, argv + 1);
  }
  if (first == "merge") return cmd_merge(argc, argv);
  if (first == "hash") return cmd_hash(argc, argv);
  if (first == "cache-gc") return cmd_cache_gc(argc, argv);
  std::cerr << "run_scenario: unknown subcommand '" << first << "'\n";
  usage(std::cerr);
  return 1;
}
