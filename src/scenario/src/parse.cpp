#include "oci/scenario/parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace oci::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(const std::string& source, std::size_t line, const std::string& msg) {
  throw std::runtime_error(source + ":" + std::to_string(line) + ": " + msg);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream is(s);
  while (std::getline(is, cur, ',')) out.push_back(trim(cur));
  if (!s.empty() && s.back() == ',') out.push_back("");
  return out;
}

/// A finite number and nothing else (NaN and infinities are not).
bool is_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && std::isfinite(v);
}

/// `linear(lo, hi, n)` / `log(lo, hi, n)` range expression, or empty
/// optional when `value` is not a range call.
std::optional<SweepAxis> parse_range(const std::string& param, const std::string& value,
                                     const std::string& source, std::size_t line) {
  const bool lin = value.rfind("linear(", 0) == 0;
  const bool lg = value.rfind("log(", 0) == 0;
  if (!lin && !lg) return std::nullopt;
  if (value.back() != ')') fail(source, line, "unterminated range expression '" + value + "'");
  const std::size_t open = value.find('(');
  const std::vector<std::string> parts =
      split_commas(value.substr(open + 1, value.size() - open - 2));
  if (parts.size() != 3 || !is_number(parts[0]) || !is_number(parts[1]) ||
      !is_number(parts[2])) {
    fail(source, line,
         "range expression needs (lo, hi, n) with numeric arguments, got '" + value + "'");
  }
  const double lo = std::strtod(parts[0].c_str(), nullptr);
  const double hi = std::strtod(parts[1].c_str(), nullptr);
  const double n = std::strtod(parts[2].c_str(), nullptr);
  if (n < 1.0 || n > kMaxSpecCount || n != std::floor(n)) {
    fail(source, line, "range point count must be an integer in [1, 2^53)");
  }
  try {
    return lin ? SweepAxis::linear(param, lo, hi, static_cast<std::size_t>(n))
               : SweepAxis::logspace(param, lo, hi, static_cast<std::size_t>(n));
  } catch (const std::invalid_argument& e) {
    fail(source, line, e.what());
  }
}

SweepAxis parse_axis(const std::string& param, const std::string& value,
                     const std::string& source, std::size_t line) {
  if (auto range = parse_range(param, value, source, line)) return *range;
  const std::vector<std::string> parts = split_commas(value);
  if (parts.empty()) fail(source, line, "sweep axis '" + param + "' has no points");
  const bool categorical = is_categorical_param(param);
  for (const std::string& p : parts) {
    if (p.empty()) fail(source, line, "sweep axis '" + param + "' has an empty point");
    if (!categorical && !is_number(p)) {
      fail(source, line,
           "sweep axis '" + param + "' point '" + p + "' is not a finite number");
    }
  }
  if (!categorical) {
    std::vector<double> values;
    values.reserve(parts.size());
    for (const std::string& p : parts) values.push_back(std::strtod(p.c_str(), nullptr));
    return SweepAxis::list(param, std::move(values));
  }
  return SweepAxis::categories(param, parts);
}

}  // namespace

ScenarioSpec parse_spec(std::istream& in, const std::string& source) {
  ScenarioSpec spec;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(source, line_no, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(source, line_no, "missing key before '='");
    if (value.empty()) fail(source, line_no, "missing value for '" + key + "'");

    if (key.rfind("sweep.", 0) == 0) {
      const std::string param = key.substr(6);
      if (!is_known_param(param)) {
        fail(source, line_no, "sweep over unknown parameter '" + param + "'");
      }
      spec.sweep.push_back(parse_axis(param, value, source, line_no));
      continue;
    }
    try {
      set_param(spec, key, value);
    } catch (const std::invalid_argument& e) {
      fail(source, line_no, e.what());
    }
  }
  return spec;
}

ScenarioSpec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario: cannot open spec file '" + path + "'");
  return parse_spec(in, path);
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace oci::scenario
