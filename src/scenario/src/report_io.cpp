#include "oci/scenario/report_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "oci/scenario/parse.hpp"
#include "oci/scenario/runner.hpp"

namespace oci::scenario::report_io {

namespace {

/// A JSON string body: quotes and backslashes escaped, and every byte
/// below 0x20 too (strict readers such as Python's json reject them raw).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte >= 0x20) {
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\b') {
      out += "\\b";
    } else if (c == '\f') {
      out += "\\f";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
    }
  }
  return out;
}

/// Best-effort commit id for the trajectory metadata: OCI_GIT_SHA
/// (explicit override) beats GITHUB_SHA (set by Actions); "unknown"
/// outside CI. Metadata only -- bench_diff never gates on it.
std::string git_sha_for_meta() {
  for (const char* var : {"OCI_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') return v;
  }
  return "unknown";
}

const char* compiler_for_meta() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void write_json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void save(const RunReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("scenario report_io: cannot write '" + path + "'");
  // 17 significant digits: every double survives the text round trip
  // bit-exactly, which the shard -> merge path relies on.
  os << std::setprecision(17);
  const std::size_t n_metrics = report.metric_names.size();
  const bool kinds_known = report.metric_kinds.size() == n_metrics;
  os << "{\n";
  os << "  \"schema_version\": 2,\n";
  os << "  \"binary\": \"scenario_" << json_escape(report.scenario) << "\",\n";
  os << "  \"config\": { \"repro_scale\": " << report.repro_scale
     << ", \"seed\": " << report.seed << ", \"topology\": \""
     << json_escape(report.topology) << "\", \"adaptive\": "
     << (report.adaptive ? "true" : "false");
  os << ", \"spec_hash\": \"" << json_escape(report.spec_hash) << "\"";
  os << ", \"confidence_z\": " << report.confidence_z;
  os << ", \"description\": \"" << json_escape(report.description) << "\"";
  os << ", \"points_total\": "
     << (report.points_total > 0 ? report.points_total : report.points.size());
  os << ", \"shard_index\": " << report.shard.index
     << ", \"shard_count\": " << report.shard.count;
  os << ", \"axes\": [";
  for (std::size_t a = 0; a < report.axis_names.size(); ++a) {
    os << (a == 0 ? "" : ", ") << "\"" << json_escape(report.axis_names[a]) << "\"";
  }
  os << "] },\n";
  os << "  \"meta\": { \"git_sha\": \"" << json_escape(git_sha_for_meta())
     << "\", \"threads\": " << report.threads << ", \"compiler\": \""
     << json_escape(compiler_for_meta()) << "\", \"cache_hits\": "
     << report.cache_hits << ", \"cache_misses\": " << report.cache_misses
     << ", \"cache_save_failures\": " << report.cache_save_failures
     << ", \"points_realised\": " << report.points_realised
     << ", \"engine_revision\": " << report.engine_revision << " },\n";
  os << "  \"results\": [";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const RunPoint& p = report.points[i];
    const double per_op = static_cast<double>(std::max<std::uint64_t>(p.samples, 1));
    os << (i == 0 ? "\n" : ",\n");
    os << "    { \"name\": \""
       << json_escape(report.scenario + "/" + p.label(report.axis_names))
       << "\", \"point_index\": " << p.point_index << ", \"coordinate\": [";
    for (std::size_t a = 0; a < p.coordinate.size(); ++a) {
      os << (a == 0 ? "" : ", ") << "\"" << json_escape(p.coordinate[a]) << "\"";
    }
    os << "], \"ns_per_op\": " << p.wall_ns / per_op
       << ", \"wall_ns\": " << p.wall_ns
       << ", \"iterations\": " << p.samples << ", \"chunks\": " << p.chunks
       << ", \"rng_draws_per_op\": " << static_cast<double>(p.rng_draws) / per_op
       << ", \"rng_draws\": " << p.rng_draws;
    if (p.weights.active()) {
      // Rare-event points only (additive; schema stays 2): the pooled
      // likelihood-ratio weight state merge needs, plus the derived
      // effective-sample diagnostics readers want directly. n_eff is
      // the Kish effective sample size (sum w)^2 / sum w^2 -- the
      // crude-MC sample count whose estimator variance the weighted
      // estimate matches.
      os << ", \"weight_sum\": ";
      write_json_number(os, p.weights.sum());
      os << ", \"weight_sum_sq\": ";
      write_json_number(os, p.weights.sum_sq());
      os << ", \"err_weight_sq\": ";
      write_json_number(os, p.err_weight_sq);
      os << ", \"n_eff\": ";
      write_json_number(os, p.weights.n_eff());
      os << ", \"weight_cv\": ";
      write_json_number(os, p.weights.weight_cv());
    }
    os << ", \"metrics\": {";
    for (std::size_t m = 0; m < n_metrics; ++m) {
      os << (m == 0 ? " " : ", ");
      // Every metric is the full interval quartet; points that ran
      // without estimates (hand-built reports) fall back to a
      // zero-width interval around the value.
      const analysis::Estimate e =
          m < p.estimates.size()
              ? p.estimates[m]
              : analysis::Estimate{p.metrics[m], p.metrics[m], p.metrics[m], p.samples};
      os << "\"" << json_escape(report.metric_names[m]) << "\": { \"value\": ";
      write_json_number(os, e.value);
      os << ", \"ci_low\": ";
      write_json_number(os, e.ci_low);
      os << ", \"ci_high\": ";
      write_json_number(os, e.ci_high);
      os << ", \"n_samples\": " << e.n_samples;
      // The serializable accumulator state: what merge pools. Only
      // written when the report carries it (runner output always does).
      if (kinds_known) {
        os << ", \"kind\": \"" << to_string(report.metric_kinds[m]) << "\"";
        if (m < p.state.size()) {
          const MetricState& st = p.state[m];
          switch (st.kind) {
            case MetricKind::kRate:
              os << ", \"successes\": ";
              write_json_number(os, st.rate.successes());
              os << ", \"trials\": " << st.rate.trials();
              break;
            case MetricKind::kMean:
              os << ", \"batch_count\": " << st.mean.chunks() << ", \"batch_mean\": ";
              write_json_number(os, st.mean.mean());
              os << ", \"batch_m2\": ";
              write_json_number(os, st.mean.batch_m2());
              break;
            case MetricKind::kCount:
              os << ", \"sum\": ";
              write_json_number(os, st.value);
              break;
            case MetricKind::kConstant:
              break;
          }
        }
      }
      os << " }";
    }
    os << " } }";
  }
  os << "\n  ]\n}\n";
  // A full disk or a closed pipe fails the write, not the open.
  os.flush();
  if (!os) throw std::runtime_error("scenario report_io: failed writing '" + path + "'");
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON reader -- just enough for the
// documents save() writes (objects, arrays, strings, numbers, bools,
// null). Key order is preserved so metric columns load in schema order.

namespace {

struct JValue {
  enum class T { kNull, kBool, kNum, kStr, kArr, kObj };
  T type = T::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string text;  ///< string value, or the raw number token
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  [[nodiscard]] const JValue* find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(std::string_view text, const std::string& path)
      : text_(text), path_(path) {}

  JValue parse() {
    JValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("scenario report_io: " + path_ + ": " + what +
                             " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JValue v;
        v.type = JValue::T::kStr;
        v.text = string();
        return v;
      }
      case 't':
      case 'f':
      case 'n':
        return keyword();
      default:
        return number();
    }
  }

  JValue object() {
    expect('{');
    JValue v;
    v.type = JValue::T::kObj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JValue array() {
    expect('[');
    JValue v;
    v.type = JValue::T::kArr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u':
            out.push_back(ascii_escape());
            break;
          default:
            fail(std::string("unsupported escape '\\") + esc + "'");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  /// The four hex digits of a backslash-u escape. save() writes those
  /// for control bytes only; code points beyond ASCII would need UTF-8
  /// and are rejected.
  char ascii_escape() {
    const char* const first = text_.data() + pos_;
    const char* const last = first + std::min<std::size_t>(4, text_.size() - pos_);
    unsigned code = 0;
    const auto [ptr, ec] = std::from_chars(first, last, code, 16);
    if (ec != std::errc() || ptr != first + 4 || code >= 0x80) {
      fail("unsupported escape '\\u" + std::string(first, last) + "'");
    }
    pos_ += 4;
    return static_cast<char>(code);
  }

  JValue keyword() {
    const auto take = [this](std::string_view word) {
      if (text_.compare(pos_, word.size(), word) != 0) fail("unknown keyword");
      pos_ += word.size();
    };
    JValue v;
    if (peek() == 't') {
      take("true");
      v.type = JValue::T::kBool;
      v.boolean = true;
    } else if (peek() == 'f') {
      take("false");
      v.type = JValue::T::kBool;
    } else {
      take("null");
    }
    return v;
  }

  JValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    JValue v;
    v.type = JValue::T::kNum;
    v.text = std::string(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.num = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size()) fail("malformed number");
    return v;
  }

  std::string_view text_;
  std::string path_;
  std::size_t pos_ = 0;
};

/// Field accessors: absent fields take the given default; present but
/// mistyped fields throw (a malformed document must not load quietly).
double num_or(const JValue& obj, std::string_view key, double fallback,
              const std::string& path) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->type == JValue::T::kNull) return fallback;
  if (v->type != JValue::T::kNum) {
    throw std::runtime_error("scenario report_io: " + path + ": field '" +
                             std::string(key) + "' is not a number");
  }
  return v->num;
}

std::uint64_t uint_or(const JValue& obj, std::string_view key, std::uint64_t fallback,
                      const std::string& path) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->type == JValue::T::kNull) return fallback;
  // Parse the raw token, not the double: a 64-bit seed is exact where
  // the double is not, and a sign, fraction or exponent is no count.
  const auto parsed = v->type == JValue::T::kNum ? parse_uint(v->text) : std::nullopt;
  if (!parsed) {
    throw std::runtime_error("scenario report_io: " + path + ": field '" +
                             std::string(key) + "' is not an unsigned integer");
  }
  return *parsed;
}

/// Merge pools a metric's accumulator state, so load must not invent
/// it: throws unless `entry` carries every field in `keys`.
void require_state(const JValue& entry, std::initializer_list<std::string_view> keys,
                   const std::string& metric, const std::string& path) {
  for (const std::string_view key : keys) {
    if (entry.find(key) == nullptr) {
      throw std::runtime_error("scenario report_io: " + path + ": metric '" + metric +
                               "' lacks accumulator state field '" + std::string(key) +
                               "'");
    }
  }
}

std::string str_or(const JValue& obj, std::string_view key, std::string fallback,
                   const std::string& path) {
  const JValue* v = obj.find(key);
  if (v == nullptr || v->type == JValue::T::kNull) return fallback;
  if (v->type != JValue::T::kStr) {
    throw std::runtime_error("scenario report_io: " + path + ": field '" +
                             std::string(key) + "' is not a string");
  }
  return v->text;
}

}  // namespace

RunReport load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario report_io: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const JValue doc = JsonParser(text, path).parse();
  if (doc.type != JValue::T::kObj) {
    throw std::runtime_error("scenario report_io: " + path + ": not a json object");
  }
  if (uint_or(doc, "schema_version", 0, path) != 2) {
    throw std::runtime_error("scenario report_io: " + path +
                             ": not a schema_version-2 document");
  }

  RunReport report;
  const std::string binary = str_or(doc, "binary", "", path);
  constexpr std::string_view kPrefix = "scenario_";
  report.scenario =
      binary.rfind(kPrefix, 0) == 0 ? binary.substr(kPrefix.size()) : binary;

  const JValue* config = doc.find("config");
  if (config == nullptr || config->type != JValue::T::kObj) {
    throw std::runtime_error("scenario report_io: " + path + ": missing config object");
  }
  report.repro_scale = num_or(*config, "repro_scale", 1.0, path);
  report.seed = uint_or(*config, "seed", 0, path);
  report.topology = str_or(*config, "topology", "", path);
  if (const JValue* adaptive = config->find("adaptive");
      adaptive != nullptr && adaptive->type == JValue::T::kBool) {
    report.adaptive = adaptive->boolean;
  }
  report.spec_hash = str_or(*config, "spec_hash", "", path);
  report.confidence_z = num_or(*config, "confidence_z", 1.96, path);
  report.description = str_or(*config, "description", "", path);
  report.shard.index = static_cast<std::size_t>(uint_or(*config, "shard_index", 0, path));
  report.shard.count = static_cast<std::size_t>(uint_or(*config, "shard_count", 1, path));
  if (const JValue* axes = config->find("axes");
      axes != nullptr && axes->type == JValue::T::kArr) {
    for (const JValue& a : axes->arr) {
      if (a.type != JValue::T::kStr) {
        throw std::runtime_error("scenario report_io: " + path +
                                 ": config.axes entries must be strings");
      }
      report.axis_names.push_back(a.text);
    }
  }

  if (const JValue* meta = doc.find("meta"); meta != nullptr && meta->type == JValue::T::kObj) {
    report.threads = static_cast<std::size_t>(uint_or(*meta, "threads", 0, path));
    report.cache_hits = uint_or(*meta, "cache_hits", 0, path);
    report.cache_misses = uint_or(*meta, "cache_misses", 0, path);
    // Absent in documents written before the counter existed: reads 0.
    report.cache_save_failures = uint_or(*meta, "cache_save_failures", 0, path);
    report.points_realised = uint_or(*meta, "points_realised", 0, path);
    report.engine_revision = static_cast<unsigned>(uint_or(*meta, "engine_revision", 0, path));
  }

  const JValue* results = doc.find("results");
  if (results == nullptr || results->type != JValue::T::kArr) {
    throw std::runtime_error("scenario report_io: " + path + ": missing results array");
  }
  for (std::size_t i = 0; i < results->arr.size(); ++i) {
    const JValue& row = results->arr[i];
    if (row.type != JValue::T::kObj) {
      throw std::runtime_error("scenario report_io: " + path +
                               ": results entries must be objects");
    }
    RunPoint p;
    p.point_index = static_cast<std::size_t>(uint_or(row, "point_index", i, path));
    if (const JValue* coord = row.find("coordinate");
        coord != nullptr && coord->type != JValue::T::kNull) {
      if (coord->type != JValue::T::kArr) {
        throw std::runtime_error("scenario report_io: " + path + ": coordinate must be an array");
      }
      for (const JValue& c : coord->arr) {
        if (c.type != JValue::T::kStr) {
          throw std::runtime_error("scenario report_io: " + path +
                                   ": coordinate entries must be strings");
        }
        p.coordinate.push_back(c.text);
      }
    }
    p.samples = uint_or(row, "iterations", 0, path);
    p.chunks = uint_or(row, "chunks", 1, path);
    p.rng_draws = uint_or(row, "rng_draws", 0, path);
    p.wall_ns = num_or(row, "wall_ns",
                       num_or(row, "ns_per_op", 0.0, path) *
                           static_cast<double>(std::max<std::uint64_t>(p.samples, 1)),
                       path);
    // Absent on crude-MC points (and on documents written before the
    // rare-event subsystem): stays the inactive zero state. The weight
    // sum of a real rare-event point is positive by construction.
    if (const double wsum = num_or(row, "weight_sum", 0.0, path); wsum > 0.0) {
      p.weights = analysis::WeightStats::from_state(
          wsum, num_or(row, "weight_sum_sq", 0.0, path), p.samples);
      p.err_weight_sq = num_or(row, "err_weight_sq", 0.0, path);
    }

    const JValue* metrics = row.find("metrics");
    if (metrics == nullptr || metrics->type != JValue::T::kObj) {
      throw std::runtime_error("scenario report_io: " + path + ": result '" +
                               str_or(row, "name", "?", path) + "' has no metrics");
    }
    std::size_t m = 0;
    for (const auto& [name, entry] : metrics->obj) {
      if (entry.type != JValue::T::kObj) {
        throw std::runtime_error("scenario report_io: " + path + ": metric '" + name +
                                 "' is not an interval object");
      }
      // Metric columns come from the FIRST row; later rows must agree.
      if (i == 0) {
        report.metric_names.push_back(name);
        require_state(entry, {"kind"}, name, path);
        report.metric_kinds.push_back(metric_kind_from_string(str_or(entry, "kind", "", path)));
      } else if (m >= report.metric_names.size() || report.metric_names[m] != name) {
        throw std::runtime_error("scenario report_io: " + path +
                                 ": inconsistent metric columns across results");
      }
      analysis::Estimate e;
      e.value = num_or(entry, "value", 0.0, path);
      e.ci_low = num_or(entry, "ci_low", e.value, path);
      e.ci_high = num_or(entry, "ci_high", e.value, path);
      e.n_samples = uint_or(entry, "n_samples", p.samples, path);
      p.estimates.push_back(e);
      p.metrics.push_back(e.value);
      MetricState& st = p.state.emplace_back(report.metric_kinds[m]);
      // A non-finite double saves as null and loads back as NaN, which
      // the from_* reconstructions sanitise.
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      switch (st.kind) {
        case MetricKind::kRate:
          require_state(entry, {"successes", "trials"}, name, path);
          st.rate = analysis::RateAccumulator::from_counts(
              num_or(entry, "successes", kNaN, path), uint_or(entry, "trials", 0, path));
          break;
        case MetricKind::kMean:
          require_state(entry, {"batch_count", "batch_mean", "batch_m2"}, name, path);
          st.mean = analysis::MeanAccumulator::from_state(
              static_cast<std::size_t>(uint_or(entry, "batch_count", 0, path)),
              num_or(entry, "batch_mean", kNaN, path), num_or(entry, "batch_m2", kNaN, path),
              e.n_samples);
          break;
        case MetricKind::kCount:
          require_state(entry, {"sum"}, name, path);
          st.value = num_or(entry, "sum", kNaN, path);
          break;
        case MetricKind::kConstant:
          st.value = e.value;
          break;
      }
      ++m;
    }
    if (m != report.metric_names.size()) {
      throw std::runtime_error("scenario report_io: " + path +
                               ": inconsistent metric columns across results");
    }
    report.points.push_back(std::move(p));
  }
  report.points_total = static_cast<std::size_t>(
      uint_or(*config, "points_total", report.points.size(), path));
  return report;
}

}  // namespace oci::scenario::report_io
