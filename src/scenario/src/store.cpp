#include "oci/scenario/store.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "oci/scenario/parse.hpp"

namespace oci::scenario {

namespace fs = std::filesystem;

namespace {

/// %.17g: exact double round trip through the text file.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

FsResultStore::FsResultStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec || !fs::is_directory(root_)) {
    throw std::runtime_error("scenario store: cannot create cache directory '" +
                             root_ + "'" + (ec ? ": " + ec.message() : ""));
  }
}

std::string FsResultStore::path_of(const ChunkKey& key) const {
  return root_ + "/r" + std::to_string(kEngineRevision) + "/" + key.spec_hash +
         "/seed" + std::to_string(key.seed) + "/p" + std::to_string(key.point) +
         ".c" + std::to_string(key.chunk);
}

std::optional<ChunkRecord> FsResultStore::load(const ChunkKey& key) const {
  std::ifstream in(path_of(key));
  if (!in) return std::nullopt;
  // Header: oci-chunk-v1 samples=<N> rng_draws=<N> metrics=<K>
  std::string magic, samples_kv, draws_kv, metrics_kv;
  if (!(in >> magic >> samples_kv >> draws_kv >> metrics_kv)) return std::nullopt;
  if (magic != "oci-chunk-v1") return std::nullopt;
  const auto value_of = [](const std::string& kv, std::string_view name,
                           std::uint64_t& out) {
    const std::string prefix = std::string(name) + "=";
    if (kv.rfind(prefix, 0) != 0) return false;
    const auto v = parse_uint(std::string_view(kv).substr(prefix.size()));
    if (v) out = *v;
    return v.has_value();
  };
  ChunkRecord rec;
  std::uint64_t metric_count = 0;
  if (!value_of(samples_kv, "samples", rec.samples) ||
      !value_of(draws_kv, "rng_draws", rec.rng_draws) ||
      !value_of(metrics_kv, "metrics", metric_count)) {
    return std::nullopt;
  }
  // Grows with the values actually read, never with the header's
  // count: a corrupt count must read as a miss, not allocate.
  for (std::uint64_t m = 0; m < metric_count; ++m) {
    double v = 0.0;
    if (!(in >> v)) return std::nullopt;  // truncated = corrupt = miss
    rec.metrics.push_back(v);
  }
  // Optional trailing rare-event weight state:
  //   weights <sum> <sum_sq> <err_weight_sq>
  // Absent on crude-MC chunks; a present-but-torn line is corrupt.
  std::string tag;
  if (in >> tag) {
    if (tag != "weights") return std::nullopt;
    if (!(in >> rec.weight_sum >> rec.weight_sum_sq >> rec.err_weight_sq)) {
      return std::nullopt;
    }
  }
  return rec;
}

bool FsResultStore::save(const ChunkKey& key, const ChunkRecord& record) const {
  const fs::path final_path = path_of(key);
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  if (ec || !fs::is_directory(final_path.parent_path())) return false;
  // Unique temp name per process+call: concurrent shards writing the
  // same key (same content, by construction) must not tear each other.
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_name;
  tmp_name << final_path.string() << ".tmp." << ::getpid() << "."
           << counter.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp_path = tmp_name.str();
  {
    std::ofstream out(tmp_path);
    if (!out) return false;
    out << "oci-chunk-v1 samples=" << record.samples << " rng_draws="
        << record.rng_draws << " metrics=" << record.metrics.size() << "\n";
    for (const double v : record.metrics) out << fmt(v) << "\n";
    if (record.weight_sum != 0.0 || record.weight_sum_sq != 0.0 ||
        record.err_weight_sq != 0.0) {
      out << "weights " << fmt(record.weight_sum) << " "
          << fmt(record.weight_sum_sq) << " " << fmt(record.err_weight_sq)
          << "\n";
    }
    if (!out) {
      out.close();
      fs::remove(tmp_path, ec);
      return false;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  return true;
}

GcReport cache_gc(const std::string& root, double max_age_days, bool dry_run) {
  if (std::isnan(max_age_days) || max_age_days < 0.0) {
    throw std::invalid_argument("scenario cache_gc: max_age_days must be a non-negative "
                                "number");
  }
  GcReport report;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return report;

  // Dead revisions first: every top-level entry that is not the live
  // r<kEngineRevision> directory (older revisions, pre-revision legacy
  // hash dirs) is unreadable by current binaries -- remove wholesale.
  // Appended, not `"r" + ...`: GCC 12's -Wrestrict false positive
  // (bug 105329) fires on the prepend at -O3.
  std::string live = "r";
  live += std::to_string(kEngineRevision);
  for (fs::directory_iterator it(root, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->path().filename().string() == live) continue;
    if (it->is_directory(ec)) {
      for (fs::recursive_directory_iterator sub(it->path(), ec), send;
           !ec && sub != send; sub.increment(ec)) {
        if (!sub->is_regular_file(ec)) continue;
        ++report.scanned;
        ++report.removed;
        report.bytes_freed += sub->file_size(ec);
      }
      ec.clear();
    } else {
      ++report.scanned;
      ++report.removed;
      report.bytes_freed += it->file_size(ec);
    }
    if (!dry_run) fs::remove_all(it->path(), ec);
  }
  ec.clear();

  // Age-based sweep over the LIVE revision only (dead trees are fully
  // accounted above -- walking them again would double-count dry runs).
  const fs::path live_root = fs::path(root) / live;
  if (!fs::is_directory(live_root, ec)) return report;
  ec.clear();
  const auto now = fs::file_time_type::clock::now();
  // Ages compare in floating-point days: converting max_age_days to the
  // clock's integer ticks instead would overflow past about 106,751
  // days (and at +inf), and no file is older than the clock's range.
  using Days = std::chrono::duration<double, std::ratio<86400>>;
  for (fs::recursive_directory_iterator it(live_root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    ++report.scanned;
    const auto mtime = fs::last_write_time(it->path(), ec);
    if (ec) {
      ec.clear();
      ++report.kept;
      continue;
    }
    if (Days(now - mtime).count() > max_age_days) {
      ++report.removed;
      report.bytes_freed += it->file_size(ec);
      if (!dry_run) fs::remove(it->path(), ec);
    } else {
      ++report.kept;
    }
  }
  if (!dry_run) {
    // Prune directories the sweep emptied (deepest first).
    std::vector<fs::path> dirs;
    ec.clear();
    for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->is_directory(ec)) dirs.push_back(it->path());
    }
    for (auto rit = dirs.rbegin(); rit != dirs.rend(); ++rit) {
      if (fs::is_empty(*rit, ec) && !ec) fs::remove(*rit, ec);
    }
  }
  return report;
}

}  // namespace oci::scenario
