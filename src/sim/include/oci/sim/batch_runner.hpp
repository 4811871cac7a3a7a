// Parallel Monte-Carlo sweep engine. BatchRunner fans a parameter
// sweep out over a std::thread pool while keeping results bit-identical
// for any thread count: every task draws from its own RngStream derived
// purely from (root_seed, label, task index) and results land in
// index-addressed slots. Use it for embarrassingly parallel sweeps
// (per-node Monte Carlo, per-design-point link sims); each task runs
// single-threaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "oci/util/random.hpp"

namespace oci::sim {

struct BatchConfig {
  /// Worker count; 0 means std::thread::hardware_concurrency() (min 1).
  /// The OCI_BATCH_THREADS environment variable, when set to a positive
  /// integer, overrides both -- handy for determinism checks and CI.
  std::size_t threads = 0;
  /// Root of every per-task RNG stream derivation.
  std::uint64_t root_seed = 0;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchConfig cfg = {});

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] std::uint64_t root_seed() const { return cfg_.root_seed; }

  /// Deterministic per-task stream: a pure function of
  /// (root_seed, label, index), independent of thread count, scheduling
  /// order, and previous sweeps on this runner.
  [[nodiscard]] util::RngStream task_stream(std::string_view label,
                                            std::size_t index) const;

  /// Deterministic per-chunk stream for adaptive (map_until) tasks: a
  /// pure function of (root_seed, label, index, chunk). Chunk k's
  /// stream never depends on how many chunks end up running, so
  /// results are bit-identical across thread counts AND across
  /// stopping decisions: the first k chunks of a long run equal a run
  /// that stopped at k.
  [[nodiscard]] util::RngStream task_stream(std::string_view label,
                                            std::size_t index,
                                            std::size_t chunk) const;

  /// Executes fn(i) once for every i in [0, tasks), spread across the
  /// pool; blocks until all tasks finish. The first exception thrown by
  /// a task is rethrown here after remaining workers stop picking up
  /// new tasks.
  void for_each_index(std::size_t tasks,
                      const std::function<void(std::size_t)>& fn) const;

  /// Fans `tasks` invocations of fn(index, rng) out over the pool and
  /// returns the results in index order. R must be default-constructible
  /// (results are written into a pre-sized vector; don't use bool --
  /// std::vector<bool> slots are not independently writable).
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t tasks, std::string_view label,
                         Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, std::size_t, util::RngStream&>;
    static_assert(!std::is_same_v<R, bool>,
                  "map to a struct; vector<bool> slots are not thread-safe "
                  "to write concurrently");
    std::vector<R> out(tasks);
    for_each_index(tasks, [&](std::size_t i) {
      util::RngStream rng = task_stream(label, i);
      out[i] = fn(i, rng);
    });
    return out;
  }

  /// Chunked adaptive map: the incremental-reduce primitive behind
  /// confidence-targeted Monte Carlo. Slot s runs task task_ids[s],
  /// growing a default-constructed accumulator Acc chunk by chunk --
  /// step(id, chunk, rng, acc) folds one chunk in from its own
  /// per-(label, id, chunk) stream -- until done(id, acc) returns true,
  /// checked after every chunk. Streams derive from the GLOBAL id, not
  /// the slot, so a subset of a sweep (a shard) produces accumulators
  /// bit-identical to the same ids inside a full run. Results land in
  /// slot order. step/done run concurrently across tasks: they must be
  /// pure functions of their arguments (no shared mutable state).
  /// done() MUST eventually return true for every task (bound it with
  /// a max-budget rule); the runner adds no iteration cap of its own.
  template <typename Acc, typename Step, typename Done>
  [[nodiscard]] std::vector<Acc> map_until(
      const std::vector<std::size_t>& task_ids, std::string_view label,
      Step&& step, Done&& done) const {
    std::vector<Acc> out(task_ids.size());
    for_each_index(task_ids.size(), [&](std::size_t slot) {
      const std::size_t id = task_ids[slot];
      for (std::size_t chunk = 0;; ++chunk) {
        util::RngStream rng = task_stream(label, id, chunk);
        step(id, chunk, rng, out[slot]);
        if (done(id, std::as_const(out[slot]))) break;
      }
    });
    return out;
  }

 private:
  BatchConfig cfg_;
  std::size_t threads_;
};

}  // namespace oci::sim
