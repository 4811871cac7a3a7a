#include "oci/scenario/cli.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "oci/scenario/parse.hpp"

namespace oci::scenario {

namespace {

/// The consumed CLI seed; lives here (not in the environment) so the
/// override can never leak into child processes or race a concurrent
/// getenv. Written from main() before threads exist.
std::optional<std::uint64_t>& cli_seed_slot() {
  static std::optional<std::uint64_t> slot;
  return slot;
}

/// Removes every `FLAG=V` and `FLAG V` from argv, compacting and
/// re-terminating it, and returns the values in argv order. A bare FLAG
/// with no value -- trailing, or followed by another `--` flag -- is
/// left in place.
std::vector<std::string> consume_flag(int& argc, char** argv, std::string_view flag) {
  std::vector<std::string> values;
  int write = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(flag) && arg.size() > flag.size() && arg[flag.size()] == '=') {
      values.emplace_back(arg.substr(flag.size() + 1));
    } else if (arg == flag && i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      values.emplace_back(argv[++i]);
    } else {
      argv[write++] = argv[i];
    }
  }
  if (write < argc) {
    argc = write;
    argv[argc] = nullptr;
  }
  return values;
}

/// Exports a CLI value as `var`, then re-reads it through the strict
/// environment parser `parses`: an explicit override must never be
/// silently dropped, so a rejected value is unset again and throws
/// naming `flag`.
void export_checked(const char* flag, const char* var, const std::string& value,
                    const char* kind, bool (*parses)()) {
  setenv(var, value.c_str(), 1);
  if (parses()) return;
  unsetenv(var);
  throw std::invalid_argument(std::string("scenario: ") + flag + " needs a positive " + kind +
                              ", got '" + value + "'");
}

/// OCI_SCENARIO_CACHE: directory of the content-addressed result store
/// (store.hpp); unset/empty = no cache.
std::optional<std::string> cache_dir_from_env() {
  const char* env = std::getenv("OCI_SCENARIO_CACHE");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::string(env);
}

/// Removes every --cache=DIR (or --cache DIR) from argv, exports the
/// last as OCI_SCENARIO_CACHE, and returns it. An empty value throws.
std::optional<std::string> consume_cache_arg(int& argc, char** argv) {
  std::optional<std::string> out;
  for (const std::string& value : consume_flag(argc, argv, "--cache")) {
    if (value.empty()) {
      throw std::invalid_argument("scenario: --cache needs a directory, got ''");
    }
    out = value;
  }
  // Exported so every later resolve_cache_dir / run in the process
  // sees the CLI value -- same precedence story as seeds.
  if (out) setenv("OCI_SCENARIO_CACHE", out->c_str(), 1);
  return out;
}

}  // namespace

void set_seed_override(std::optional<std::uint64_t> seed) { cli_seed_slot() = seed; }

std::optional<std::uint64_t> seed_override() { return cli_seed_slot(); }

std::optional<std::uint64_t> seed_from_env() {
  const char* env = std::getenv("OCI_SEED");
  if (env == nullptr) return std::nullopt;
  return parse_uint(env);
}

std::optional<std::uint64_t> consume_seed_arg(int& argc, char** argv) {
  std::optional<std::uint64_t> out;
  // Consumed either way; a garbled value falls back.
  for (const std::string& value : consume_flag(argc, argv, "--seed")) {
    if (const auto v = parse_uint(value)) out = v;
  }
  // Install the CLI seed as the in-process override so the documented
  // precedence (--seed beats OCI_SEED beats the spec) holds for EVERY
  // later resolution in this process -- including ScenarioRunner::
  // run()'s own re-resolution, which would otherwise re-apply a stale
  // OCI_SEED over the CLI value. The environment is left untouched.
  if (out) set_seed_override(out);
  return out;
}

std::optional<double> precision_from_env() {
  const char* env = std::getenv("OCI_PRECISION");
  if (env == nullptr || *env == '\0') return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0.0)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> max_samples_from_env() {
  const char* env = std::getenv("OCI_MAX_SAMPLES");
  if (env == nullptr) return std::nullopt;
  if (const auto v = parse_uint(env); v && *v > 0) return v;
  return std::nullopt;
}

void consume_precision_args(int& argc, char** argv) {
  // Exported (like the consumed seed) so EVERY later resolution in the
  // process honours the CLI-beats-env-beats-spec precedence.
  for (const std::string& value : consume_flag(argc, argv, "--precision")) {
    export_checked("--precision", "OCI_PRECISION", value, "number",
                   [] { return precision_from_env().has_value(); });
  }
  for (const std::string& value : consume_flag(argc, argv, "--max-samples")) {
    export_checked("--max-samples", "OCI_MAX_SAMPLES", value, "integer",
                   [] { return max_samples_from_env().has_value(); });
  }
}

void apply_precision_overrides(ScenarioSpec& spec) {
  if (const auto half_width = precision_from_env()) {
    // Code-density traffic cannot chunk (whole-run order statistics);
    // the env knob skips those scenarios instead of invalidating them.
    if (spec.resolved_mode() != TrafficMode::kCodeDensity) {
      spec.precision.target_half_width = *half_width;
      // FORCE the absolute target: a spec's own looser relative /
      // rare-event rules would otherwise still fire first (targets
      // compose with OR) and silently undo the override.
      spec.precision.target_relative = 0.0;
      spec.precision.stop_below = 0.0;
      spec.precision.enabled = true;
    }
  }
  if (const auto cap = max_samples_from_env()) {
    spec.precision.max_samples = *cap;
  }
}

std::uint64_t resolve_seed(std::uint64_t fallback) {
  if (const auto cli = seed_override()) return *cli;
  return seed_from_env().value_or(fallback);
}

std::uint64_t resolve_seed(std::uint64_t fallback, int& argc, char** argv) {
  const std::optional<std::uint64_t> cli = consume_seed_arg(argc, argv);
  if (cli) return *cli;
  return resolve_seed(fallback);
}

ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  const auto bad = [&text] {
    return std::invalid_argument("scenario: --shard needs i/N with i < N, got '" +
                                 text + "'");
  };
  if (slash == std::string::npos) throw bad();
  const auto index = parse_uint(std::string_view(text).substr(0, slash));
  const auto count = parse_uint(std::string_view(text).substr(slash + 1));
  if (!index || !count || *count == 0 || *index >= *count) throw bad();
  ShardSpec s;
  s.index = static_cast<std::size_t>(*index);
  s.count = static_cast<std::size_t>(*count);
  return s;
}

std::optional<ShardSpec> consume_shard_arg(int& argc, char** argv) {
  std::optional<ShardSpec> out;
  for (const std::string& value : consume_flag(argc, argv, "--shard")) {
    out = parse_shard(value);  // strict: a garbled shard must not run the full sweep
  }
  return out;
}

std::optional<std::string> resolve_cache_dir(int& argc, char** argv) {
  if (auto cli = consume_cache_arg(argc, argv)) return cli;
  return cache_dir_from_env();
}

}  // namespace oci::scenario
