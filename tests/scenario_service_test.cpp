// Tests for the scenario service layer: canonical spec hashing (every
// key, the checked-in specs' pinned hashes, SHA-256 vectors), the
// content-addressed result store (round trip, corruption-as-miss,
// age-based GC), cache-hit bit-identity and checkpoint/resume, sharded
// sweeps whose union merges back to the unsharded report exactly,
// pooled multi-seed merging, schema-v2 report document round trips,
// and the shard/cache CLI helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oci/analysis/report.hpp"
#include "oci/link/optical_link.hpp"
#include "oci/scenario/cli.hpp"
#include "oci/scenario/merge.hpp"
#include "oci/scenario/parse.hpp"
#include "oci/scenario/report_io.hpp"
#include "oci/scenario/runner.hpp"
#include "oci/scenario/serialize.hpp"
#include "oci/scenario/spec.hpp"
#include "oci/scenario/store.hpp"

namespace {

namespace fs = std::filesystem;
using namespace oci;
using scenario::ChunkKey;
using scenario::ChunkRecord;
using scenario::FsResultStore;
using scenario::MergeOptions;
using scenario::MetricKind;
using scenario::MetricState;
using scenario::RunOptions;
using scenario::RunPoint;
using scenario::RunReport;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::ShardSpec;
using scenario::SweepAxis;
using scenario::Topology;

constexpr std::uint64_t kSeed = 20260726;

/// Pins the process repro scale so budget resolution is deterministic
/// regardless of the CI environment.
struct ScaleGuard {
  explicit ScaleGuard(double s) { analysis::set_repro_scale_for_test(s); }
  ~ScaleGuard() { analysis::set_repro_scale_for_test(std::nullopt); }
};

/// Fresh per-test scratch directory under gtest's temp root.
fs::path scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("oci_service_" + leaf);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// `text` with every `key` that a non-empty value follows replaced by
/// `with`, the value included; the value is the longest run of
/// characters `in_value` accepts.
template <typename Pred>
std::string replace_entries(const std::string& text, const std::string& key, Pred in_value,
                            const std::string& with) {
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at + 1)) {
    if (at < from) continue;
    std::size_t end = at + key.size();
    while (end < text.size() && in_value(text[end])) ++end;
    if (end == at + key.size()) continue;
    out.append(text, from, at - from);
    out += with;
    from = end;
  }
  out.append(text, from);
  return out;
}

/// Small fixed-budget sweep: 4 points, no calibration, fast.
ScenarioSpec sweep_spec() {
  ScenarioSpec spec;
  spec.name = "svc_link";
  spec.seed = kSeed;
  spec.topology = Topology::kPointToPoint;
  spec.device.design = link::TdcDesign{64, 4, util::Time::picoseconds(52.0)};
  spec.device.bits_per_symbol = 6;
  spec.device.calibrate = false;
  spec.budget.samples = 600;
  spec.budget.repro_scaled = false;
  spec.sweep.push_back(SweepAxis::list("jitter_ps", {40.0, 90.0, 140.0, 190.0}));
  return spec;
}

/// Same sweep under an adaptive stopping rule: multiple chunks per
/// point, so the cache actually sees per-chunk traffic.
ScenarioSpec adaptive_spec() {
  ScenarioSpec spec = sweep_spec();
  spec.precision.enabled = true;
  spec.precision.metric = "ser";
  spec.precision.target_half_width = 0.02;
  spec.precision.chunk = 200;
  spec.precision.max_samples = 1200;
  return spec;
}

/// Importance-sampled variant of the adaptive sweep: every chunk now
/// carries likelihood-ratio weight state through the store, the shard
/// planner and the merge path.
ScenarioSpec tilted_spec() {
  ScenarioSpec spec = adaptive_spec();
  spec.variance.kind = rare::Kind::kTilt;
  spec.variance.jitter_tilt = 1.8;
  return spec;
}

/// Bitwise equality of everything deterministic in two reports (wall
/// clock and cache counters excluded by design).
void expect_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.spec_hash, b.spec_hash);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.adaptive, b.adaptive);
  EXPECT_EQ(a.points_total, b.points_total);
  EXPECT_EQ(a.axis_names, b.axis_names);
  EXPECT_EQ(a.metric_names, b.metric_names);
  EXPECT_EQ(a.metric_kinds, b.metric_kinds);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const RunPoint& pa = a.points[i];
    const RunPoint& pb = b.points[i];
    EXPECT_EQ(pa.point_index, pb.point_index);
    EXPECT_EQ(pa.coordinate, pb.coordinate);
    EXPECT_EQ(pa.samples, pb.samples) << "point " << i;
    EXPECT_EQ(pa.chunks, pb.chunks) << "point " << i;
    EXPECT_EQ(pa.rng_draws, pb.rng_draws) << "point " << i;
    EXPECT_EQ(pa.metrics, pb.metrics) << "point " << i;
    ASSERT_EQ(pa.estimates.size(), pb.estimates.size());
    for (std::size_t m = 0; m < pa.estimates.size(); ++m) {
      EXPECT_EQ(pa.estimates[m].value, pb.estimates[m].value) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].ci_low, pb.estimates[m].ci_low) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].ci_high, pb.estimates[m].ci_high) << i << "/" << m;
      EXPECT_EQ(pa.estimates[m].n_samples, pb.estimates[m].n_samples) << i << "/" << m;
    }
    // Likelihood-ratio weight state (all zero for crude runs).
    EXPECT_EQ(pa.weights.sum(), pb.weights.sum()) << "point " << i;
    EXPECT_EQ(pa.weights.sum_sq(), pb.weights.sum_sq()) << "point " << i;
    EXPECT_EQ(pa.weights.count(), pb.weights.count()) << "point " << i;
    EXPECT_EQ(pa.err_weight_sq, pb.err_weight_sq) << "point " << i;
  }
}

// -- Canonical hashing --------------------------------------------------

TEST(SpecHash, StableAcrossTextualFormatting) {
  std::istringstream text_a(
      "name = h\n"
      "topology = point-to-point\n"
      "bits_per_symbol = 6\n"
      "samples = 600\n"
      "sweep.jitter_ps = 40, 80\n");
  // Same experiment: keys reordered, comments, stray whitespace.
  std::istringstream text_b(
      "# a comment\n"
      "sweep.jitter_ps =   40,80\n"
      "samples=600\n\n"
      "bits_per_symbol = 6   # trailing comment\n"
      "topology = point-to-point\n"
      "name = h\n");
  const ScenarioSpec a = scenario::parse_spec(text_a);
  const ScenarioSpec b = scenario::parse_spec(text_b);
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(SpecHash, IgnoresSeedAndDescription) {
  ScenarioSpec a = sweep_spec();
  ScenarioSpec b = sweep_spec();
  b.seed = kSeed + 1;  // part of the store KEY, not the hash
  b.description = "same experiment, different words";
  EXPECT_EQ(scenario::spec_hash(a), scenario::spec_hash(b));
}

TEST(SpecHash, ChangesOnEverySemanticField) {
  // Every key but seed and description re-keys the cache: set each to a
  // value its field does not hold by default.
  ScenarioSpec base;
  base.sweep.push_back(SweepAxis::list("jitter_ps", {40.0, 90.0}));
  const std::string base_hash = scenario::spec_hash(base);
  const std::map<std::string, std::string> labels = {
      {"name", "other"},          {"description", "other words"},
      {"topology", "wdm"},        {"mode", "symbols"},
      {"fec", "hamming"},         {"tech_node", "65nm"},
      {"labeling", "binary"},     {"mac", "tdma"},
      {"pattern", "hotspot"},     {"delivery", "engine"},
      {"variance.kind", "tilt"},  {"variance.levels", "3:2:1"},
      {"precision.metric", "ser"}};
  // Flags that default to 1.
  const std::set<std::string> flags_on = {
      "calibrate",         "repro_scaled",  "fault.mask_hot_pixels",
      "fault.recalibrate", "fault.reroute", "fault.mac_reclaim"};
  std::set<std::string> hashes;
  std::size_t hashed_keys = 0;
  for (const std::string& key : scenario::known_params()) {
    std::string value = flags_on.contains(key) ? "0" : "7";
    if (scenario::is_categorical_param(key)) {
      ASSERT_TRUE(labels.contains(key)) << "no mutation label for '" << key << "'";
      value = labels.at(key);
    }
    ScenarioSpec s = base;
    scenario::set_param(s, key, value);
    const std::string h = scenario::spec_hash(s);
    if (key == "seed" || key == "description") {
      EXPECT_EQ(h, base_hash) << key;  // excluded from the hash by design
      continue;
    }
    EXPECT_NE(h, base_hash) << key << " = " << value;
    hashes.insert(h);
    ++hashed_keys;
  }
  EXPECT_EQ(hashed_keys, 88u);
  EXPECT_EQ(hashes.size(), 88u);  // no two keys collide

  // Lines no key reaches: the sweep axes and the aggressor list.
  const auto mutated = [&](auto&& mutate) {
    ScenarioSpec s = base;
    mutate(s);
    return scenario::spec_hash(s);
  };
  hashes.insert(base_hash);
  hashes.insert(mutated([](ScenarioSpec& s) { s.sweep[0].values.push_back(240.0); }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.sweep[0].param = "dcr_hz"; }));
  hashes.insert(mutated([](ScenarioSpec& s) { s.aggressors.push_back({1.0, 300.0}); }));
  EXPECT_EQ(hashes.size(), 92u);
  for (const std::string& h : hashes) EXPECT_EQ(h.size(), 64u);
}

TEST(SpecHash, DependsOnAmbientReproScale) {
  // The resolved sample counts depend on the process repro scale, so
  // cached chunks from different scales must never collide.
  ScenarioSpec spec = sweep_spec();
  spec.budget.repro_scaled = true;
  std::string full, smoke;
  {
    ScaleGuard guard(1.0);
    full = scenario::spec_hash(spec);
  }
  {
    ScaleGuard guard(0.05);
    smoke = scenario::spec_hash(spec);
  }
  EXPECT_NE(full, smoke);
}

TEST(SpecHash, PinnedForCheckedInSpecsAndSha256Vectors) {
  // The hash addresses every cached chunk of these specs; a change to
  // their canonical text must be a deliberate re-key, never a side effect.
  struct Pin {
    const char* spec;
    const char* at_scale_1;
    const char* at_scale_002;
  };
  const Pin pins[] = {
      {"scenarios/deep_ser.spec",
       "30bc4b8b2d5f6ed10a1b466ba8d7d4d8f596f5a0e2c5c7ce06bd0bb4b37fa003",
       "7c9cae63011c609bcdd30035f6d5d1baebae174698d2c7a82ae8f4f98bd68b07"},
      {"scenarios/degraded_link.spec",
       "d9f77b6c49ab4e02c6eac9baac3461bc259755005f073ed9c3391f5cfd841d7b",
       "a793a98e3dcf8c62493b363cbeafcf80496ff20f5fc353d301d4c682155d214b"},
      {"scenarios/link_jitter.spec",
       "3a886be76f4091154c3e18c2783801704a094e93740907bd013d3c8a4daa5b01",
       "2c42194a81fc799be4b833a08be73f94b795c89555c685df74073eb1f3965064"},
      {"scenarios/noc_node_failure.spec",
       "041ae0e2f55fd1fa6228ac719106cbe921e710070af9c6c868722895ceb2ae6f",
       "16a3ac1a648790bd6fd5857449be23d23b839e779064552053ca3c4879f3d0c3"},
      {"scenarios/noc_saturation.spec",
       "130e2a8965d02022a37ac2b06e41fcc171d9bc764eb2a093f9bfa77c8fa16ca4",
       "62fd979dc4ee796e06160b7552c5b212afe14ad7927af0bce86ecc03f032a750"},
      {"scenarios/noc_thousand_node.spec",
       "6c7510e4f5ee0c65c873bf72bc173388d062493d54afb575d7f7335e26986048",
       "b528eeff80955d84bbb1cb984b242159d11208eea43aac16fa94f2a07720d4ba"},
      {"scenario_bench/specs/link_bulk.spec",
       "0d1ab095ec83668fb0bb4b862ee6694d572ab66bdff65c09466029af4bccb451",
       "3ef5798e2b5332d7c8be0116798899b4a4c97ba9915d11610a151e9dad3e55a9"},
      {"scenario_bench/specs/link_rare.spec",
       "e48408d0553936b58af159bebeb13e378638db0d6f04f26733b3547c2d0942da",
       "9f951ba2f49afecd9355680c14d3c5767da8baf457584efba5475ba3001deb2f"},
  };
  for (const Pin& pin : pins) {
    const ScenarioSpec spec =
        scenario::parse_spec_file(std::string(OCI_SOURCE_DIR) + "/" + pin.spec);
    {
      ScaleGuard guard(1.0);
      EXPECT_EQ(scenario::spec_hash(spec), pin.at_scale_1) << pin.spec;
    }
    {
      ScaleGuard guard(0.02);
      EXPECT_EQ(scenario::spec_hash(spec), pin.at_scale_002) << pin.spec;
    }
  }

  // FIPS 180-4 examples, then lengths around the padding boundary (55
  // bytes leave room for the length in one block, 56 do not), checked
  // against Python's hashlib.
  EXPECT_EQ(scenario::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(scenario::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(scenario::sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::pair<std::size_t, const char*> runs_of_a[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
  };
  for (const auto& [n, hex] : runs_of_a) {
    EXPECT_EQ(scenario::sha256_hex(std::string(n, 'a')), hex) << n << " x 'a'";
  }
}

// -- Result store -------------------------------------------------------

TEST(ResultStore, RoundTripsChunkRecords) {
  const fs::path dir = scratch_dir("store_rt");
  const FsResultStore store(dir.string());
  const ChunkKey key{"a1b2", kSeed, 3, 7};
  const ChunkRecord rec{600, 41234, {0.125, 3.0e-9, 1.0 / 3.0}};
  EXPECT_FALSE(store.load(key).has_value());
  store.save(key, rec);
  const auto back = store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->samples, rec.samples);
  EXPECT_EQ(back->rng_draws, rec.rng_draws);
  EXPECT_EQ(back->metrics, rec.metrics);  // %.17g: bitwise round trip
  // Distinct keys are distinct entries.
  EXPECT_FALSE(store.load(ChunkKey{"a1b2", kSeed, 3, 8}).has_value());
  EXPECT_FALSE(store.load(ChunkKey{"a1b2", kSeed + 1, 3, 7}).has_value());
}

TEST(ResultStore, CorruptEntriesReadAsMiss) {
  const fs::path dir = scratch_dir("store_corrupt");
  const FsResultStore store(dir.string());
  const ChunkKey key{"feed", kSeed, 0, 0};
  store.save(key, ChunkRecord{100, 5, {1.0, 2.0}});
  ASSERT_TRUE(store.load(key).has_value());
  {  // truncate: fewer metric lines than the header promises
    std::ofstream out(store.path_of(key));
    out << "oci-chunk-v1 samples=100 rng_draws=5 metrics=2\n1.0\n";
  }
  EXPECT_FALSE(store.load(key).has_value());
  {  // garbage
    std::ofstream out(store.path_of(key));
    out << "not a chunk at all\n";
  }
  EXPECT_FALSE(store.load(key).has_value());
  // Header counts that are no count: a metric count far past the file
  // must not be allocated up front, and a negative or overflowing
  // sample count must not wrap to 2^64 - 1.
  for (const char* header :
       {"oci-chunk-v1 samples=100 rng_draws=5 metrics=18446744073709551615\n1.0\n2.0\n",
        "oci-chunk-v1 samples=-1 rng_draws=5 metrics=2\n1.0\n2.0\n",
        "oci-chunk-v1 samples=18446744073709551616 rng_draws=5 metrics=2\n1.0\n2.0\n"}) {
    std::ofstream(store.path_of(key)) << header;
    EXPECT_FALSE(store.load(key).has_value()) << header;
  }
}

TEST(ResultStore, GcRemovesOnlyOldEntries) {
  const fs::path dir = scratch_dir("store_gc");
  const FsResultStore store(dir.string());
  const ChunkKey young{"young", kSeed, 0, 0};
  const ChunkKey old{"old", kSeed, 0, 0};
  store.save(young, ChunkRecord{1, 1, {0.5}});
  store.save(old, ChunkRecord{1, 1, {0.5}});
  // Age the second entry three days.
  const auto stamp = fs::last_write_time(store.path_of(old)) -
                     std::chrono::duration_cast<fs::file_time_type::duration>(
                         std::chrono::hours(72));
  fs::last_write_time(store.path_of(old), stamp);

  const auto dry = scenario::cache_gc(dir.string(), 1.0, /*dry_run=*/true);
  EXPECT_EQ(dry.scanned, 2u);
  EXPECT_EQ(dry.removed, 1u);
  EXPECT_TRUE(store.load(old).has_value());  // dry run touches nothing

  const auto gc = scenario::cache_gc(dir.string(), 1.0);
  EXPECT_EQ(gc.removed, 1u);
  EXPECT_EQ(gc.kept, 1u);
  EXPECT_GT(gc.bytes_freed, 0u);
  EXPECT_FALSE(store.load(old).has_value());
  EXPECT_TRUE(store.load(young).has_value());
  EXPECT_FALSE(fs::exists(dir / "old"));  // emptied dirs pruned

  // A day count past the file clock's range (about 106,751 days) once
  // overflowed the tick conversion and removed every entry. NaN and
  // negative ages are no ages.
  for (const double days : {1e6, 1e300, std::numeric_limits<double>::infinity()}) {
    const auto keep = scenario::cache_gc(dir.string(), days);
    EXPECT_EQ(keep.removed, 0u) << days;
    EXPECT_EQ(keep.kept, 1u) << days;
  }
  EXPECT_TRUE(store.load(young).has_value());
  for (const double days : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_THROW((void)scenario::cache_gc(dir.string(), days), std::invalid_argument) << days;
  }
  EXPECT_TRUE(store.load(young).has_value());
}

// -- Cache semantics ----------------------------------------------------

TEST(ScenarioService, EngineRevisionBumpInvalidatesTheWholeCache) {
  // Entries live under r<kEngineRevision>: a revision bump (new engine
  // code, same spec hash) must be a FULL miss, never a stale hit.
  const fs::path dir = scratch_dir("store_rev");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_GT(cold.cache_misses, 0u);
  const fs::path live = dir / ("r" + std::to_string(scenario::kEngineRevision));
  ASSERT_TRUE(fs::exists(live));

  // Simulate a store written by the PREVIOUS engine revision by moving
  // the whole tree under r<rev-1>. The warm run serves nothing from it
  // and re-simulates every chunk, bit-identically.
  const fs::path stale =
      dir / ("r" + std::to_string(scenario::kEngineRevision - 1));
  fs::rename(live, stale);
  const RunReport warm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  expect_identical(cold, warm);

  // cache_gc prunes the dead revision wholesale -- even entries far
  // younger than max_age -- and keeps the freshly rewritten live tree.
  const auto gc = scenario::cache_gc(dir.string(), /*max_age_days=*/365.0);
  EXPECT_GT(gc.removed, 0u);
  EXPECT_FALSE(fs::exists(stale));
  ASSERT_TRUE(fs::exists(live));
  const RunReport rewarm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(rewarm.cache_misses, 0u);
  EXPECT_EQ(rewarm.cache_hits, cold.cache_misses);
}

TEST(ScenarioService, SaveFailuresAreCountedAndHarmless) {
  const fs::path dir = scratch_dir("store_blocked");
  const FsResultStore store(dir.string());
  // Block the store with a regular FILE where the revision directory
  // must go: every save's create_directories fails, loads simply miss.
  std::ofstream(dir / ("r" + std::to_string(scenario::kEngineRevision))) << "x";
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport blocked = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(blocked.cache_hits, 0u);
  EXPECT_GT(blocked.cache_misses, 0u);
  // Every simulated chunk failed to persist, and each failure was
  // counted -- not swallowed.
  EXPECT_EQ(blocked.cache_save_failures, blocked.cache_misses);

  // The broken cache is invisible to the physics: an uncached run
  // produces the identical report.
  const RunReport uncached = ScenarioRunner(2).run(spec);
  EXPECT_EQ(uncached.cache_save_failures, 0u);
  expect_identical(blocked, uncached);

  // The counter survives the schema-v2 report document round trip.
  const fs::path path = scratch_dir("store_blocked_io") / "report.json";
  scenario::report_io::save(blocked, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  EXPECT_EQ(back.cache_save_failures, blocked.cache_save_failures);
}

TEST(ScenarioService, WarmCacheIsBitIdenticalAcrossThreadCounts) {
  const fs::path dir = scratch_dir("cache_warm");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();

  const RunReport cold = ScenarioRunner(1).run(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);

  // Warm re-runs -- single-threaded and wide -- serve every chunk from
  // the store and reproduce the cold report exactly.
  for (const std::size_t threads : {1u, 8u}) {
    const RunReport warm = ScenarioRunner(threads).run(spec, options);
    EXPECT_EQ(warm.cache_misses, 0u) << threads << " threads";
    EXPECT_EQ(warm.cache_hits, cold.cache_misses) << threads << " threads";
    expect_identical(cold, warm);
  }
  // And the cache is transparent: an uncached run agrees too.
  const RunReport uncached = ScenarioRunner(2).run(spec);
  EXPECT_EQ(uncached.cache_hits + uncached.cache_misses, 0u);
  expect_identical(cold, uncached);
}

TEST(ScenarioService, ResumesAfterLostChunks) {
  // A killed sweep = a store holding a chunk subset. Deleting files and
  // re-running must recompute exactly the holes, bit-identically.
  const fs::path dir = scratch_dir("cache_resume");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = adaptive_spec();
  const RunReport cold = ScenarioRunner(2).run(spec, options);

  std::vector<fs::path> chunks;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) chunks.push_back(entry.path());
  }
  ASSERT_EQ(chunks.size(), cold.cache_misses);
  ASSERT_GE(chunks.size(), 4u);
  for (std::size_t i = 0; i < chunks.size(); i += 3) fs::remove(chunks[i]);
  const std::size_t holes = (chunks.size() + 2) / 3;

  const RunReport resumed = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(resumed.cache_misses, holes);
  EXPECT_EQ(resumed.cache_hits, chunks.size() - holes);
  expect_identical(cold, resumed);
}

TEST(ScenarioService, PartialResumeRebuildsHardwareFromChunkZero) {
  // A point's hardware comes from chunk 0's stream whichever of its
  // chunks simulates first, and its one-off draws and retrain land on
  // chunk 0. Resuming with chunk 0 cached, or with only chunk 0 lost,
  // must reproduce the cold report bit for bit.
  ScenarioSpec spec = adaptive_spec();
  spec.device.calibrate = true;
  spec.device.calibration_samples = 2000;
  spec.fault.tdc_drift_c = 10.0;  // retrain: recalibrations + training draws
  const fs::path dir = scratch_dir("cache_partial");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;

  const RunReport cold = ScenarioRunner(2).run(spec, options);
  const std::size_t points = cold.points.size();
  EXPECT_EQ(cold.points_realised, points);
  std::size_t multi_chunk = 0;
  for (const RunPoint& p : cold.points) {
    EXPECT_EQ(cold.metric(p, "recalibrations"), 1.0) << "one retrain per point";
    if (p.chunks > 1) ++multi_chunk;
  }
  ASSERT_GT(multi_chunk, 0u);

  // Fully cached: no point builds hardware.
  const RunReport warm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.points_realised, 0u);
  expect_identical(cold, warm);

  const auto chunk_files = [&](bool chunk_zero) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const bool zero = name.size() > 3 && name.compare(name.size() - 3, 3, ".c0") == 0;
      if (entry.is_regular_file() && zero == chunk_zero) out.push_back(entry.path());
    }
    return out;
  };

  // (a) Every point keeps only chunk 0: chunk 1 simulates first and
  // realises; points that stopped after chunk 0 build nothing.
  const std::vector<fs::path> later = chunk_files(false);
  ASSERT_EQ(later.size(), cold.cache_misses - points);
  for (const fs::path& f : later) fs::remove(f);
  const RunReport a = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(a.cache_misses, later.size());
  EXPECT_EQ(a.cache_hits, points);
  EXPECT_EQ(a.points_realised, multi_chunk);
  expect_identical(cold, a);

  // (b) Only chunk 0 lost: it realises, every later chunk hits.
  const std::vector<fs::path> zeros = chunk_files(true);
  ASSERT_EQ(zeros.size(), points);
  for (const fs::path& f : zeros) fs::remove(f);
  const RunReport b = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(b.cache_misses, points);
  EXPECT_EQ(b.cache_hits, later.size());
  EXPECT_EQ(b.points_realised, points);
  expect_identical(cold, b);
}

TEST(ScenarioService, CheckedInSpecWarmRunDoesZeroChunks) {
  // Acceptance check on the real checked-in spec at smoke scale: the
  // second run of scenarios/link_jitter.spec must simulate nothing.
  ScaleGuard guard(0.02);
  ScenarioSpec spec = scenario::parse_spec_file(std::string(OCI_SOURCE_DIR) +
                                                "/scenarios/link_jitter.spec");
  spec.validate();
  const fs::path dir = scratch_dir("cache_spec");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_GT(cold.cache_misses, 0u);
  const RunReport warm = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  expect_identical(cold, warm);
}

// -- Shards and merge ---------------------------------------------------

TEST(ScenarioService, ShardUnionMergeEqualsUnshardedRun) {
  const ScenarioSpec spec = adaptive_spec();
  const RunReport full = ScenarioRunner(2).run(spec);

  for (const std::size_t n_shards : {2u, 3u}) {
    std::vector<RunReport> parts;
    for (std::size_t i = 0; i < n_shards; ++i) {
      RunOptions options;
      options.shard = ShardSpec{i, n_shards};
      parts.push_back(ScenarioRunner(2).run(spec, options));
      EXPECT_EQ(parts.back().points_total, full.points.size());
      EXPECT_LT(parts.back().points.size(), full.points.size());
    }
    const RunReport merged = scenario::merge_reports(parts);
    expect_identical(full, merged);
  }
}

TEST(ScenarioService, WeightedShardUnionMergeEqualsUnshardedRun) {
  // Weight moments must pool across shards exactly like the rate
  // accumulators -- summed, never averaged -- or the merged n_eff and
  // variance diagnostics silently drift from the unsharded truth.
  const ScenarioSpec spec = tilted_spec();
  const RunReport full = ScenarioRunner(2).run(spec);
  for (const RunPoint& p : full.points) {
    EXPECT_TRUE(p.weights.active());
    EXPECT_EQ(p.weights.count(), p.samples);
  }

  for (const std::size_t n_shards : {2u, 3u}) {
    std::vector<RunReport> parts;
    for (std::size_t i = 0; i < n_shards; ++i) {
      RunOptions options;
      options.shard = ShardSpec{i, n_shards};
      parts.push_back(ScenarioRunner(2).run(spec, options));
    }
    const RunReport merged = scenario::merge_reports(parts);
    expect_identical(full, merged);
  }
}

TEST(ScenarioService, WeightedChunksRoundTripThroughTheCache) {
  // Cold run persists every tilted chunk (metrics AND the trailing
  // weights line); the warm run must serve all of them back and land
  // on the bit-identical report.
  const fs::path dir = scratch_dir("cache_weighted");
  const FsResultStore store(dir.string());
  RunOptions options;
  options.store = &store;
  const ScenarioSpec spec = tilted_spec();

  const RunReport cold = ScenarioRunner(2).run(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.cache_misses, 0u);

  const RunReport warm = ScenarioRunner(8).run(spec, options);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  expect_identical(cold, warm);

  // The records on disk really carry the weight state: a weighted
  // chunk whose weights line is torn off must read as a miss, not as
  // a crude chunk.
  std::vector<fs::path> chunks;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) chunks.push_back(entry.path());
  }
  ASSERT_EQ(chunks.size(), cold.cache_misses);
  std::size_t weighted = 0;
  for (const fs::path& chunk : chunks) {
    std::ifstream in(chunk);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.find("\nweights ") != std::string::npos) ++weighted;
  }
  EXPECT_EQ(weighted, chunks.size());
}

TEST(ScenarioService, MergePoolsRunsFromDifferentSeeds) {
  ScenarioSpec spec = sweep_spec();
  // TDC drift with retraining makes the count column (recalibrations)
  // nonzero, so its pooling is observable.
  spec.device.calibrate = true;
  spec.device.calibration_samples = 2000;
  spec.fault.tdc_drift_c = 10.0;
  ScenarioSpec other = spec;
  other.seed = kSeed + 17;
  const RunReport a = ScenarioRunner(2).run(spec);
  const RunReport b = ScenarioRunner(2).run(other);
  const RunReport merged = scenario::merge_reports({a, b});

  EXPECT_EQ(merged.seed, 0u);  // mixed seeds -> sentinel
  ASSERT_EQ(merged.points.size(), a.points.size());
  const std::size_t ser = 0;  // first point-to-point metric is "ser"
  ASSERT_EQ(merged.metric_names[ser], "ser");
  std::set<MetricKind> kinds_seen;
  for (std::size_t i = 0; i < merged.points.size(); ++i) {
    const RunPoint& p = merged.points[i];
    EXPECT_EQ(p.samples, a.points[i].samples + b.points[i].samples);
    ASSERT_EQ(p.state.size(), merged.metric_names.size());
    // Every column pools its state by kind -- never averaged estimates
    // -- and its estimate is recomputed from the pooled state.
    for (std::size_t m = 0; m < p.state.size(); ++m) {
      const MetricState& pooled = p.state[m];
      const MetricState& sa = a.points[i].state[m];
      const MetricState& sb = b.points[i].state[m];
      kinds_seen.insert(pooled.kind);
      switch (pooled.kind) {
        case MetricKind::kRate:
          EXPECT_EQ(pooled.rate.successes(), sa.rate.successes() + sb.rate.successes())
              << merged.metric_names[m];
          EXPECT_EQ(pooled.rate.trials(), sa.rate.trials() + sb.rate.trials())
              << merged.metric_names[m];
          break;
        case MetricKind::kMean:
          EXPECT_EQ(pooled.mean.chunks(), sa.mean.chunks() + sb.mean.chunks())
              << merged.metric_names[m];
          break;
        case MetricKind::kCount:
          EXPECT_GT(sa.value, 0.0) << merged.metric_names[m];
          EXPECT_EQ(pooled.value, sa.value + sb.value) << merged.metric_names[m];
          break;
        case MetricKind::kConstant:
          EXPECT_EQ(pooled.value, sa.value) << merged.metric_names[m];
          break;
      }
      const analysis::Estimate e = pooled.estimate(merged.confidence_z, p.samples);
      EXPECT_EQ(p.estimates[m].value, e.value) << merged.metric_names[m];
      EXPECT_EQ(p.estimates[m].ci_low, e.ci_low) << merged.metric_names[m];
      EXPECT_EQ(p.estimates[m].ci_high, e.ci_high) << merged.metric_names[m];
      EXPECT_EQ(p.metrics[m], e.value) << merged.metric_names[m];
    }
    // More data can only tighten the interval.
    EXPECT_LE(p.estimates[ser].half_width(),
              a.points[i].estimates[ser].half_width() + 1e-12);
  }
  // The point-to-point symbol schema exercises every kind.
  EXPECT_EQ(kinds_seen.size(), 4u);
}

TEST(ScenarioService, MergeRejectsBadCombinations) {
  const ScenarioSpec spec = sweep_spec();
  const RunReport full = ScenarioRunner(2).run(spec);
  RunOptions shard0;
  shard0.shard = ShardSpec{0, 2};
  const RunReport part = ScenarioRunner(2).run(spec, shard0);

  // Same seed twice: the same samples twice, never poolable.
  EXPECT_THROW((void)scenario::merge_reports({full, full}), std::invalid_argument);
  // A lone shard misses points...
  EXPECT_THROW((void)scenario::merge_reports({part}), std::invalid_argument);
  // ...unless explicitly allowed.
  MergeOptions lenient;
  lenient.allow_partial = true;
  const RunReport partial = scenario::merge_reports({part}, lenient);
  EXPECT_EQ(partial.points.size(), part.points.size());
  EXPECT_EQ(partial.points_total, full.points.size());
  // Different experiments (hash mismatch) never merge.
  ScenarioSpec changed = spec;
  changed.device.bits_per_symbol = 4;
  const RunReport other = ScenarioRunner(2).run(changed);
  EXPECT_THROW((void)scenario::merge_reports({full, other}), std::invalid_argument);
  // A constant that differs by one ulp between seeds: not the same
  // experiment, however close.
  ScenarioSpec reseeded = spec;
  reseeded.seed = kSeed + 17;
  RunReport nudged = ScenarioRunner(2).run(reseeded);
  const std::size_t slot = 4;  // the point-to-point symbol schema's constant
  ASSERT_EQ(nudged.metric_names[slot], "slot_ps");
  MetricState& slot_ps = nudged.points.front().state[slot];
  ASSERT_EQ(slot_ps.kind, MetricKind::kConstant);
  (void)scenario::merge_reports({full, nudged});  // poolable as run
  // Reports simulated by different engine revisions never merge.
  RunReport older = nudged;
  older.engine_revision = full.engine_revision - 1;
  EXPECT_THROW((void)scenario::merge_reports({full, older}), std::invalid_argument);
  slot_ps.value = std::nextafter(slot_ps.value, 2.0 * slot_ps.value);
  EXPECT_THROW((void)scenario::merge_reports({full, nudged}), std::invalid_argument);
  // Nothing to merge at all.
  EXPECT_THROW((void)scenario::merge_reports({}), std::invalid_argument);
}

// -- Report document round trip ----------------------------------------

TEST(ReportIo, RoundTripsThroughDisk) {
  const ScenarioSpec spec = adaptive_spec();
  const RunReport report = ScenarioRunner(2).run(spec);
  const fs::path path = scratch_dir("report_io") / "report.json";
  scenario::report_io::save(report, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  expect_identical(report, back);
  EXPECT_EQ(back.confidence_z, report.confidence_z);
  EXPECT_EQ(report.engine_revision, scenario::kEngineRevision);
  EXPECT_EQ(back.engine_revision, report.engine_revision);
  // The reconstructed accumulators are live: merging a loaded shard
  // pair behaves exactly like merging in-memory reports.
  RunOptions s0, s1;
  s0.shard = ShardSpec{0, 2};
  s1.shard = ShardSpec{1, 2};
  const fs::path p0 = scratch_dir("report_io_s0") / "s0.json";
  const fs::path p1 = scratch_dir("report_io_s1") / "s1.json";
  scenario::report_io::save(ScenarioRunner(2).run(spec, s0), p0.string());
  scenario::report_io::save(ScenarioRunner(2).run(spec, s1), p1.string());
  const RunReport merged = scenario::merge_reports(
      {scenario::report_io::load(p0.string()), scenario::report_io::load(p1.string())});
  expect_identical(report, merged);
}

TEST(ReportIo, ControlCharactersRoundTripEscaped) {
  // A raw control byte in a string makes the document unreadable to
  // strict JSON readers (Python's json, so bench_diff.py): every byte
  // below 0x20 must be written escaped, and load must undo each escape.
  RunReport report = ScenarioRunner(2).run(sweep_spec());
  const std::string odd = "tab\there \x01 cr\r bs\b ff\f us\x1f nl\n q\" b\\";
  report.scenario = "name " + odd;
  report.description = "description " + odd;
  report.points[0].coordinate[0] = "label " + odd;
  const fs::path path = scratch_dir("report_io_ctrl") / "report.json";
  scenario::report_io::save(report, path.string());

  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  const std::string doc = text.str();
  // The document's own line breaks are its only bytes below 0x20.
  EXPECT_EQ(std::count_if(doc.begin(), doc.end(),
                          [](char c) { return c != '\n' && static_cast<unsigned char>(c) < 0x20; }),
            0)
      << doc;
  const RunReport back = scenario::report_io::load(path.string());
  EXPECT_EQ(back.scenario, report.scenario);
  EXPECT_EQ(back.description, report.description);
  EXPECT_EQ(back.points[0].coordinate[0], report.points[0].coordinate[0]);
}

TEST(ReportIo, SaveThrowsWhenTheWriteFails) {
  // /dev/full opens but fails every write: a report that never reached
  // the disk must not read as saved.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const RunReport report = ScenarioRunner(2).run(sweep_spec());
  EXPECT_THROW(scenario::report_io::save(report, "/dev/full"), std::runtime_error);
}

TEST(ReportIo, EmptyAccumulatorStateRoundTrips) {
  // Zero-chunk accumulator state is legal on disk (a point whose mean
  // metrics never accumulated): the loader must reconstruct the EMPTY
  // accumulator -- finite, merge-safe -- not NaN moments.
  const ScenarioSpec spec = adaptive_spec();
  RunReport report = ScenarioRunner(2).run(spec);
  ASSERT_FALSE(report.points.empty());
  for (auto& st : report.points[0].state) {
    st.mean = analysis::MeanAccumulator();
    st.rate = analysis::RateAccumulator();
  }

  const fs::path path = scratch_dir("report_io_empty") / "report.json";
  scenario::report_io::save(report, path.string());
  const RunReport back = scenario::report_io::load(path.string());
  ASSERT_EQ(back.points[0].state.size(), report.points[0].state.size());
  for (const auto& st : back.points[0].state) {
    EXPECT_EQ(st.mean.chunks(), 0u);
    EXPECT_TRUE(std::isfinite(st.mean.interval().value));
    EXPECT_DOUBLE_EQ(st.mean.interval().half_width(), 0.0);
    EXPECT_EQ(st.rate.trials(), 0u);
    EXPECT_TRUE(std::isfinite(st.rate.wilson().ci_high));
  }

  // And the reconstruction is live: pooling the emptied point with a
  // different-seed run behaves like an in-memory empty accumulator.
  ScenarioSpec other = spec;
  other.seed = kSeed + 1;
  const RunReport pooled =
      scenario::merge_reports({back, ScenarioRunner(2).run(other)});
  for (const auto& p : pooled.points) {
    for (const auto& e : p.estimates) {
      EXPECT_TRUE(std::isfinite(e.value));
      EXPECT_TRUE(std::isfinite(e.ci_low) && std::isfinite(e.ci_high));
    }
  }
}

TEST(ReportIo, LoadRejectsMalformedDocuments) {
  const fs::path dir = scratch_dir("report_io_bad");
  const auto write = [&](const char* name, const std::string& text) {
    const fs::path p = dir / name;
    std::ofstream(p) << text;
    return p.string();
  };
  EXPECT_THROW((void)scenario::report_io::load((dir / "absent.json").string()),
               std::runtime_error);
  EXPECT_THROW((void)scenario::report_io::load(write("trunc.json", "{ \"schema")),
               std::runtime_error);
  EXPECT_THROW((void)scenario::report_io::load(
                   write("schema.json", "{ \"schema_version\": 3, \"results\": [] }")),
               std::runtime_error);
  EXPECT_THROW(
      (void)scenario::report_io::load(write(
          "noresults.json",
          "{ \"schema_version\": 2, \"binary\": \"scenario_x\", \"config\": {} }")),
      std::runtime_error);

  // A metric without its kind or accumulator state must not load:
  // merge would pool invented state (a missing batch_m2 as zero
  // spread). The error names the file and the metric.
  const fs::path full = dir / "full.json";
  scenario::report_io::save(ScenarioRunner(2).run(adaptive_spec()), full.string());
  std::ostringstream text;
  text << std::ifstream(full).rdbuf();
  std::set<std::string> stripped;
  for (const std::string field :
       {"kind", "successes", "trials", "batch_count", "batch_mean", "batch_m2", "sum"}) {
    const std::string doc = replace_entries(
        text.str(), ", \"" + field + "\": ", [](char c) { return c != ',' && c != '}'; }, "");
    if (doc == text.str()) continue;  // no metric of that kind here
    stripped.insert(field);
    const std::string path = write(("no_" + field + ".json").c_str(), doc);
    try {
      (void)scenario::report_io::load(path);
      ADD_FAILURE() << "loaded a document without '" << field << "'";
    } catch (const std::runtime_error& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("metric '"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(stripped.count("kind") && stripped.count("successes")) << stripped.size();

  // Unsigned fields take unsigned integers only. A sign, a fraction, an
  // exponent or an overflow throws naming the field; each once loaded
  // as 2^64 - 1, as 1 or through an undefined double cast.
  const std::pair<std::string, std::string> bad_uints[] = {
      {"seed", "-1"},
      {"trials", "-1"},
      {"point_index", "1.5"},
      {"iterations", "1e300"},
      {"rng_draws", "18446744073709551616"},
  };
  for (const auto& [field, value] : bad_uints) {
    const std::string key = "\"" + field + "\": ";
    const std::string doc = replace_entries(
        text.str(), key, [](char c) { return c >= '0' && c <= '9'; }, key + value);
    ASSERT_NE(doc, text.str()) << field;
    const std::string path = write(("bad_" + field + ".json").c_str(), doc);
    try {
      (void)scenario::report_io::load(path);
      ADD_FAILURE() << "loaded " << field << " = " << value;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("'" + field + "'"), std::string::npos)
          << err.what();
    }
  }
}

TEST(ReportIo, LoadRejectsMistypedCoordinates) {
  // Each once loaded, and merged into a document whose coordinates read
  // "" and "40".
  const fs::path dir = scratch_dir("report_io_coordinate");
  const fs::path full = dir / "full.json";
  scenario::report_io::save(ScenarioRunner(2).run(sweep_spec()), full.string());
  std::ostringstream text;
  text << std::ifstream(full).rdbuf();
  const std::string key = "\"coordinate\": ";
  const std::size_t found = text.str().find(key);
  ASSERT_NE(found, std::string::npos);
  const std::size_t at = found + key.size();
  for (const std::string value : {"[{\"x\": 1}]", "[40]", "\"40\""}) {
    std::string doc = text.str();
    doc.replace(at, doc.find(']', at) + 1 - at, value);
    const fs::path path = dir / "bad.json";
    std::ofstream(path) << doc;
    try {
      (void)scenario::report_io::load(path.string());
      ADD_FAILURE() << "loaded coordinate " << value;
    } catch (const std::runtime_error& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(path.string()), std::string::npos) << what;
      EXPECT_NE(what.find("coordinate"), std::string::npos) << what;
    }
  }
}

// -- CLI helpers --------------------------------------------------------

TEST(ScenarioCli, ParsesShardSpecs) {
  const ShardSpec s = scenario::parse_shard("1/4");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_TRUE(s.active());
  EXPECT_FALSE(scenario::parse_shard("0/1").active());
  for (const char* bad : {"", "2", "a/2", "1/b", "1/2x", "-1/2", "1/-2", "2/2",
                          "3/2", "0/0", "1/", "/2", "+1/2", " 1/2", "1/ 2",
                          "0/18446744073709551616"}) {
    EXPECT_THROW((void)scenario::parse_shard(bad), std::invalid_argument) << bad;
  }
}

TEST(ScenarioCli, ConsumesShardAndCacheArgs) {
  const char* saved = std::getenv("OCI_SCENARIO_CACHE");
  const std::string saved_value = saved ? saved : "";
  ::unsetenv("OCI_SCENARIO_CACHE");

  std::vector<std::string> args = {"tool", "spec.file", "--shard=1/2",
                                   "--cache=/tmp/c", "--out=x.json"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());

  const auto shard = scenario::consume_shard_arg(argc, argv.data());
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->index, 1u);
  EXPECT_EQ(shard->count, 2u);
  const auto cache = scenario::resolve_cache_dir(argc, argv.data());
  ASSERT_TRUE(cache.has_value());
  EXPECT_EQ(*cache, "/tmp/c");
  // Both consumed and re-exported; unrelated args intact.
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "spec.file");
  EXPECT_STREQ(argv[2], "--out=x.json");
  EXPECT_STREQ(std::getenv("OCI_SCENARIO_CACHE"), "/tmp/c");

  ::unsetenv("OCI_SCENARIO_CACHE");
  // Env fallback when no flag is present.
  ::setenv("OCI_SCENARIO_CACHE", "/tmp/from_env", 1);
  int argc2 = 1;
  EXPECT_EQ(scenario::resolve_cache_dir(argc2, argv.data()).value(), "/tmp/from_env");
  if (saved) {
    ::setenv("OCI_SCENARIO_CACHE", saved_value.c_str(), 1);
  } else {
    ::unsetenv("OCI_SCENARIO_CACHE");
  }

  // Garbled values throw, naming the flag.
  std::vector<std::string> bad = {"tool", "--shard=9/3"};
  std::vector<char*> bad_argv;
  for (std::string& a : bad) bad_argv.push_back(a.data());
  int bad_argc = static_cast<int>(bad_argv.size());
  EXPECT_THROW((void)scenario::consume_shard_arg(bad_argc, bad_argv.data()),
               std::invalid_argument);
}

// A bare flag takes no other flag as its value: `--cache --seed=7` once
// ran at the spec's seed and made a cache directory named "--seed=7".
TEST(ScenarioCli, BareFlagLeavesTheNextFlagInPlace) {
  const char* saved = std::getenv("OCI_SCENARIO_CACHE");
  const std::string saved_value = saved ? saved : "";
  ::unsetenv("OCI_SCENARIO_CACHE");

  std::vector<std::string> args = {"tool", "--cache", "--seed=7"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());

  EXPECT_FALSE(scenario::resolve_cache_dir(argc, argv.data()).has_value());
  EXPECT_EQ(std::getenv("OCI_SCENARIO_CACHE"), nullptr);
  // The bare flag stays for the caller to report, and the seed stays
  // consumable.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--cache");
  EXPECT_EQ(scenario::consume_seed_arg(argc, argv.data()), std::optional<std::uint64_t>(7u));
  EXPECT_EQ(argc, 2);
  scenario::set_seed_override(std::nullopt);
  if (saved) ::setenv("OCI_SCENARIO_CACHE", saved_value.c_str(), 1);
}

TEST(ScenarioService, RejectsInvalidShardOptions) {
  const ScenarioSpec spec = sweep_spec();
  RunOptions zero;
  zero.shard = ShardSpec{0, 0};
  EXPECT_THROW((void)ScenarioRunner(1).run(spec, zero), std::invalid_argument);
  RunOptions oob;
  oob.shard = ShardSpec{2, 2};
  EXPECT_THROW((void)ScenarioRunner(1).run(spec, oob), std::invalid_argument);
}

}  // namespace
