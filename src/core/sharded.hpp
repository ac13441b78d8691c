#pragma once
// core::ShardedSketcher — N-way concurrent ingest over any factory backend,
// merged by a pool-executed FD tree. This is the in-process realization of
// the paper's Fig. 2 scaling argument: FD sketches are mergeable, so P
// independent shards ingest in parallel and tree-merge in ⌈log₂P⌉ rounds.
//
// Partitioning is round-robin on a global row counter: row j of the
// lifetime stream lands on shard j mod P. That makes the shard contents —
// and therefore the merged sketch — a pure function of arrival order,
// independent of pool size or scheduling: results are bitwise identical
// at any thread count (including pool == nullptr, fully inline).
//
// Concurrency/allocation contract: every shard owns its inner sketcher and
// one grow-only gather matrix per precision, so concurrent shard tasks
// never share mutable state (no locks on the data path) and steady-state
// ingest performs no heap allocation in the shard work itself. Dispatching
// onto a ThreadPool costs O(shards) small control allocations per batch;
// run with pool == nullptr for strictly allocation-free inline ingest.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/merge.hpp"
#include "core/sketcher.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"

namespace arams::parallel {
class ThreadPool;
}  // namespace arams::parallel

namespace arams::core {

class ShardedSketcher final : public Sketcher {
 public:
  /// Builds `shards` inner backends from `inner` (which must name a plain,
  /// non-sharded backend). Shard i seeds with inner.seed + i (and
  /// inner.arams.seed + i for "arams"), the same convention as the
  /// pipeline's num_cores row ranges (range c seeds with seed + c). `pool`
  /// executes shard ingest and the merge groups; nullptr runs everything
  /// inline on the calling thread.
  ShardedSketcher(const SketcherConfig& inner, std::size_t shards,
                  parallel::ThreadPool* pool);

  void push_batch(linalg::MatrixView batch) override;
  /// fp32 rows are gathered as floats, so each shard's inner sketcher
  /// gets an fp32 batch and widens (or samples) it itself.
  void push_batch(linalg::MatrixViewF batch) override;
  linalg::Matrix sketch() override;
  [[nodiscard]] std::size_t current_ell() const override;
  [[nodiscard]] std::size_t dim() const override;
  [[nodiscard]] SketchStats stats() const override;
  [[nodiscard]] std::string name() const override;

  /// Base report plus the stats of the last sketch()-time merge (the
  /// "merge_*" keys, including the measured-vs-modeled makespan pair).
  void report(obs::StageReport& out) const override;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Lifetime rows routed to shard `s` (also published as the
  /// "sketch.shard_rows.<s>" gauge after every batch).
  [[nodiscard]] long shard_rows(std::size_t s) const;

  /// Stats of the most recent sketch()-time parallel tree merge; zeros
  /// before the first sketch() call.
  [[nodiscard]] const MergeStats& last_merge_stats() const {
    return last_merge_stats_;
  }

 private:
  struct Shard {
    std::unique_ptr<Sketcher> inner;
    linalg::Matrix gather_f64;   ///< gathered fp64 rows, grow-only
    linalg::MatrixF gather_f32;  ///< gathered fp32 rows, grow-only
    obs::Gauge* rows_gauge = nullptr;  ///< "sketch.shard_rows.<s>"
    long rows = 0;

    /// The gather matrix for rows read through a view of this type.
    linalg::Matrix& gather(linalg::MatrixView) { return gather_f64; }
    linalg::MatrixF& gather(linalg::MatrixViewF) { return gather_f32; }
  };

  /// Both push_batch overloads: round-robins the batch's rows onto the
  /// shards, each shard's rows gathered in `View`'s precision.
  template <typename View>
  void push_rows(View batch);

  /// True when shard work should go to the pool (>1 worker, >1 shard).
  [[nodiscard]] bool use_pool() const;
  /// Pooled fan-out, out of line to keep ThreadPool out of this header.
  void pool_dispatch(const std::function<void(std::size_t)>& fn);

  /// Runs fn(s) for every shard — on the pool when it has >1 worker,
  /// inline otherwise. Either way shard s does identical work. Templated
  /// so the inline path never type-erases fn into a std::function (that
  /// erasure heap-allocates, which would break the allocation-free
  /// steady-state contract of pool-less ingest).
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    if (use_pool()) {
      pool_dispatch(std::function<void(std::size_t)>(std::forward<Fn>(fn)));
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) fn(s);
    }
  }

  std::vector<Shard> shards_;
  parallel::ThreadPool* pool_;
  std::size_t row_cursor_ = 0;  ///< lifetime rows seen; round-robin state
  MergeStats last_merge_stats_;
  std::string inner_name_;
};

}  // namespace arams::core
