// Unit tests for the parallel Monte-Carlo sweep engine: determinism
// across thread counts, per-task stream independence, chunked adaptive
// maps, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "oci/sim/batch_runner.hpp"
#include "oci/util/random.hpp"

namespace {

using oci::sim::BatchConfig;
using oci::sim::BatchRunner;
using oci::util::RngStream;

BatchRunner make_runner(std::size_t threads, std::uint64_t seed = 20080615) {
  BatchConfig cfg;
  cfg.threads = threads;
  cfg.root_seed = seed;
  return BatchRunner(cfg);
}

// A stochastic per-task workload: several dependent draws so any
// cross-task stream sharing or reordering would change the result.
double mc_task(std::size_t i, RngStream& rng) {
  double acc = static_cast<double>(i);
  for (int k = 0; k < 100; ++k) {
    acc += rng.normal(0.0, 1.0) * rng.uniform();
    if (rng.bernoulli(0.3)) acc += static_cast<double>(rng.poisson(4.0));
  }
  return acc;
}

TEST(BatchRunner, MapIsBitIdenticalAcrossThreadCounts) {
  const auto serial = make_runner(1).map(64, "mc", mc_task);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const auto parallel = make_runner(threads).map(64, "mc", mc_task);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bitwise equality, not tolerance: same stream, same arithmetic.
      EXPECT_EQ(serial[i], parallel[i]) << "task " << i << " diverged at "
                                        << threads << " threads";
    }
  }
}

TEST(BatchRunner, TaskStreamsAreDecorrelatedAcrossIndexAndLabel) {
  const BatchRunner runner = make_runner(1);
  std::set<std::uint64_t> first_draws;
  for (std::size_t i = 0; i < 256; ++i) {
    RngStream a = runner.task_stream("alpha", i);
    RngStream b = runner.task_stream("beta", i);
    EXPECT_NE(a.engine()(), b.engine()());
    first_draws.insert(runner.task_stream("alpha", i).engine()());
  }
  // All 256 per-index streams produced distinct first draws.
  EXPECT_EQ(first_draws.size(), 256u);
}

TEST(BatchRunner, TaskStreamIsIndependentOfPriorSweeps) {
  const BatchRunner runner = make_runner(3);
  const auto first = runner.map(8, "sweep", mc_task);
  (void)runner.map(32, "other", mc_task);  // interleaved unrelated sweep
  const auto second = runner.map(8, "sweep", mc_task);
  EXPECT_EQ(first, second);
}

// Chunk log accumulator for map_until tests: remembers every chunk's
// first uniform draw so stream identity can be compared run to run.
struct ChunkLog {
  std::vector<double> draws;
};

/// Task ids 0..n-1: a full sweep.
std::vector<std::size_t> all_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

TEST(BatchRunner, MapUntilIsBitIdenticalAcrossThreadCounts) {
  // Heterogeneous chunk counts (task i runs i%3 + 1 chunks) exercise
  // the scheduler: slow tasks must not perturb fast tasks' streams.
  auto step = [](std::size_t, std::size_t, RngStream& rng, ChunkLog& acc) {
    acc.draws.push_back(rng.uniform());
  };
  auto done = [](std::size_t i, const ChunkLog& acc) {
    return acc.draws.size() >= i % 3 + 1;
  };
  const auto serial = make_runner(1).map_until<ChunkLog>(all_ids(24), "adaptive", step, done);
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel =
        make_runner(threads).map_until<ChunkLog>(all_ids(24), "adaptive", step, done);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].draws, parallel[i].draws) << "task " << i;
    }
  }
}

TEST(BatchRunner, IndexedMapUntilMatchesFullRunPerTask) {
  // Explicit ids are the sharding primitive: running the id
  // subset {1, 4, 7, ...} must reproduce exactly those slots of the
  // full run, because streams derive from the GLOBAL id, not the slot.
  auto step = [](std::size_t, std::size_t, RngStream& rng, ChunkLog& acc) {
    acc.draws.push_back(rng.uniform());
  };
  auto done = [](std::size_t i, const ChunkLog& acc) {
    return acc.draws.size() >= i % 3 + 1;
  };
  const auto full = make_runner(2).map_until<ChunkLog>(all_ids(12), "shard", step, done);
  std::vector<std::size_t> ids;
  for (std::size_t g = 1; g < 12; g += 3) ids.push_back(g);
  const auto subset = make_runner(4).map_until<ChunkLog>(ids, "shard", step, done);
  ASSERT_EQ(subset.size(), ids.size());
  for (std::size_t slot = 0; slot < ids.size(); ++slot) {
    EXPECT_EQ(subset[slot].draws, full[ids[slot]].draws) << "task " << ids[slot];
  }
}

TEST(BatchRunner, MapUntilChunksAreIndependentOfStoppingDecision) {
  // The first k chunks of a long run must equal a run that stopped at
  // k: chunk streams are a pure function of (seed, label, index,
  // chunk), never of how many chunks end up running.
  auto step = [](std::size_t, std::size_t, RngStream& rng, ChunkLog& acc) {
    acc.draws.push_back(rng.uniform());
  };
  const auto short_run = make_runner(2).map_until<ChunkLog>(
      all_ids(8), "stop", step,
      [](std::size_t, const ChunkLog& acc) { return acc.draws.size() >= 2; });
  const auto long_run = make_runner(2).map_until<ChunkLog>(
      all_ids(8), "stop", step,
      [](std::size_t, const ChunkLog& acc) { return acc.draws.size() >= 5; });
  for (std::size_t i = 0; i < short_run.size(); ++i) {
    ASSERT_EQ(short_run[i].draws.size(), 2u);
    ASSERT_EQ(long_run[i].draws.size(), 5u);
    EXPECT_EQ(short_run[i].draws[0], long_run[i].draws[0]) << "task " << i;
    EXPECT_EQ(short_run[i].draws[1], long_run[i].draws[1]) << "task " << i;
  }
}

TEST(BatchRunner, ChunkStreamsAreDecorrelated) {
  const BatchRunner runner = make_runner(1);
  std::set<std::uint64_t> first_draws;
  for (std::size_t chunk = 0; chunk < 64; ++chunk) {
    first_draws.insert(runner.task_stream("sweep", 3, chunk).engine()());
  }
  // Distinct from each other AND from the per-task (2-arg) stream.
  first_draws.insert(runner.task_stream("sweep", 3).engine()());
  EXPECT_EQ(first_draws.size(), 65u);
  // Pure function: re-derivation yields the same stream.
  EXPECT_EQ(runner.task_stream("sweep", 3, 7).engine()(),
            runner.task_stream("sweep", 3, 7).engine()());
}

TEST(BatchRunner, CoversEveryIndexExactlyOnce) {
  const BatchRunner runner = make_runner(4);
  std::vector<std::atomic<int>> hits(1000);
  runner.for_each_index(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(BatchRunner, PropagatesFirstTaskException) {
  const BatchRunner runner = make_runner(4);
  EXPECT_THROW(runner.for_each_index(64,
                                     [](std::size_t i) {
                                       if (i == 17) {
                                         throw std::runtime_error("task 17");
                                       }
                                     }),
               std::runtime_error);
}

TEST(BatchRunner, ZeroTasksIsANoOp) {
  const BatchRunner runner = make_runner(4);
  runner.for_each_index(0, [](std::size_t) { FAIL() << "must not be called"; });
  EXPECT_TRUE(runner.map(0, "empty", mc_task).empty());
}

TEST(BatchRunner, DefaultThreadCountUsesHardware) {
  if (std::getenv("OCI_BATCH_THREADS") != nullptr) {
    GTEST_SKIP() << "OCI_BATCH_THREADS overrides the default";
  }
  const BatchRunner runner((BatchConfig()));
  EXPECT_GE(runner.threads(), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(runner.threads(), hw);
  }
}

TEST(BatchRunner, EnvVarOverridesThreadCount) {
  ASSERT_EQ(setenv("OCI_BATCH_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(make_runner(8).threads(), 3u);
  ASSERT_EQ(setenv("OCI_BATCH_THREADS", "garbage", 1), 0);
  EXPECT_EQ(make_runner(8).threads(), 8u);
  ASSERT_EQ(unsetenv("OCI_BATCH_THREADS"), 0);
}

}  // namespace
