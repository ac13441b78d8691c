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
// one grow-only gather matrix per precision, so concurrent shard items
// never share mutable state (no locks on the data path) and steady-state
// ingest performs no heap allocation in the shard work itself, pooled or
// inline: a pool entry allocates nothing.
//
// sketch() runs each shard's own sketch() (its compress) as one shard
// item, then tree-merges the parts. The merge's group scratch (one
// grow-only slot per group index) is kept here across calls, as is the
// workspace of the default basis(); the part and group-output matrices
// are fresh on every merge. The merged sketch is cached with the ingest
// version it belongs to: every non-empty push bumps the version, and a
// sketch() or basis() of an unchanged state returns the cached matrix
// without touching the shards. That is the same bits as merging again,
// because an inner sketch() is idempotent (a second compress of an
// unchanged shard is a no-op), so the parts would stack identically.
//
// Errors: when a shard's sketch() throws, the pool rethrows the exception
// of the lowest throwing shard index after every shard item has finished;
// the other shards may by then have compressed (which no later result can
// tell apart from not compressing, by idempotence), no merge runs, and the
// cache keeps its old version, so the next sketch() starts over.

#include <cstddef>
#include <cstdint>
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

  /// Base report (the shards' summed stats()), each shard's own stage
  /// seconds that stats() does not carry ("sample", "ingest_widen"), and
  /// the stats of the last sketch()-time merge (the "merge_*" keys,
  /// including the measured-vs-modeled makespan pair).
  void report(obs::StageReport& out) const override;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Lifetime rows routed to shard `s` (also published as the
  /// "sketch.shard_rows.<s>" gauge after every batch).
  [[nodiscard]] long shard_rows(std::size_t s) const;

  /// Stats of the most recent tree merge sketch() ran; zeros before the
  /// first one. A sketch() served from the cache leaves them as they are.
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

  /// Runs fn(s) for every shard: through the pool when there is one and
  /// more than one shard, inline otherwise (a single shard keeps the pool
  /// for its own kernels). Either way shard s does identical work. Defined
  /// in sharded.cpp, its only user.
  template <typename Fn>
  void for_each_shard(const Fn& fn);

  std::vector<Shard> shards_;
  parallel::ThreadPool* pool_;
  std::size_t row_cursor_ = 0;  ///< lifetime rows seen; round-robin state
  std::uint64_t version_ = 1;   ///< bumped by every non-empty push
  std::uint64_t merged_version_ = 0;  ///< version merged_ belongs to
  linalg::Matrix merged_;             ///< the last sketch() result
  std::vector<MergeScratch> merge_scratch_;  ///< tree_merge group slots
  MergeStats last_merge_stats_;
  std::string inner_name_;
};

}  // namespace arams::core
