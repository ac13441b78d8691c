#pragma once
// Sketch merging (Section IV-C and the appendix).
//
// FD sketches are mergeable summaries: stacking two ℓ-row sketches and
// running one FD shrink yields an ℓ-row sketch of the union with the same
// space/error trade-off. serial_merge folds P sketches one at a time
// (P−1 shrinks on the critical path — the bottleneck the paper identifies);
// tree_merge reduces them level by level (⌈log_a P⌉ shrink *rounds* on the
// critical path), which is what makes the Fig. 2 scaling linear.

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "obs/stage_report.hpp"

namespace arams::parallel {
class ThreadPool;
}  // namespace arams::parallel

namespace arams::core {

struct MergeStats {
  long merge_ops = 0;           ///< total pairwise/group shrinks performed
  long levels = 0;              ///< reduction rounds (tree) / steps (serial)
  long critical_path_ops = 0;   ///< shrinks a real parallel run would wait on
  long parallel_groups = 0;     ///< merge groups actually dispatched to a pool
  double total_seconds = 0.0;   ///< wall time of all shrinks (work)
  /// Modeled makespan: sum over levels of the slowest group's shrink time,
  /// i.e. what a cluster with one core per group would wait.
  double critical_path_seconds_modeled = 0.0;
  /// Measured makespan: real wall time of the reduction as executed (the
  /// sum of per-level wall times — for a pooled tree_merge this is the
  /// actual concurrent schedule; inline and for serial_merge, the serial
  /// wall).
  double critical_path_seconds_measured = 0.0;
};

/// Folds merge counters/timings into a StageReport (stages "merge",
/// "merge_critical_path" — the modeled makespan — and
/// "merge_critical_path_measured").
inline void append_to_report(const MergeStats& stats,
                             obs::StageReport& report) {
  report.add_counter("merge_ops", stats.merge_ops);
  report.add_counter("merge_levels", stats.levels);
  report.add_counter("merge_critical_path_ops", stats.critical_path_ops);
  report.add_counter("merge_parallel_groups", stats.parallel_groups);
  report.add_seconds("merge", stats.total_seconds);
  report.add_seconds("merge_critical_path",
                     stats.critical_path_seconds_modeled);
  report.add_seconds("merge_critical_path_measured",
                     stats.critical_path_seconds_measured);
}

/// Inverse of append_to_report.
inline MergeStats merge_stats_from_report(const obs::StageReport& report) {
  MergeStats stats;
  stats.merge_ops = report.counter("merge_ops");
  stats.levels = report.counter("merge_levels");
  stats.critical_path_ops = report.counter("merge_critical_path_ops");
  stats.parallel_groups = report.counter("merge_parallel_groups");
  stats.total_seconds = report.seconds("merge");
  stats.critical_path_seconds_modeled = report.seconds("merge_critical_path");
  stats.critical_path_seconds_measured =
      report.seconds("merge_critical_path_measured");
  return stats;
}

/// Scratch of one merge group: the stack, Gram and eig buffers (in `ws`)
/// and the Σ·Vᵀ output of its shrink. Not thread-safe: one per concurrent
/// group.
struct MergeScratch {
  linalg::Workspace ws;
  linalg::SigmaVt svd;
};

/// Merges a group of sketches into one ℓ-row sketch with a single FD
/// shrink of their vertical stack. Column counts must match.
linalg::Matrix merge_group(const std::vector<linalg::Matrix>& sketches,
                           std::size_t ell);

/// Sequential fold: sketches arrive at one core and are merged one by one.
linalg::Matrix serial_merge(std::vector<linalg::Matrix> sketches,
                            std::size_t ell, MergeStats* stats = nullptr);

/// Branching reduction with the given arity (default binary). Each level
/// merges disjoint groups; a real cluster executes every group of a level
/// in parallel, so only the slowest group of each level hits the critical
/// path — that is what critical_path_ops/seconds_modeled record.
///
/// With a `pool` (the sharded sketcher and pipeline pass
/// &parallel::shared_pool()) every level's groups run concurrently; nullptr
/// runs them inline on the calling thread. Group g of a level owns scratch
/// slot g and writes result slot g, so the reduction is bitwise identical
/// at any pool size — scheduling decides only *when* a group runs, never
/// what it computes. Groups stack into their slot's workspace (no per-step
/// vstack). `scratch`, when given, is kept by the caller across calls: it
/// grows to the widest level's group count and never shrinks, so repeated
/// merges of one shape reuse every stack, Gram, eig and SVD buffer. Without
/// it each call builds fresh slots. Either way the group outputs (and the
/// per-level result vectors) are fresh allocations on every call, and the
/// result is the same bits: no kernel reads a slot's previous contents.
/// `stats->critical_path_seconds_measured` is the real wall time of the
/// reduction.
linalg::Matrix tree_merge(std::vector<linalg::Matrix> sketches,
                          std::size_t ell, std::size_t arity = 2,
                          MergeStats* stats = nullptr,
                          parallel::ThreadPool* pool = nullptr,
                          std::vector<MergeScratch>* scratch = nullptr);

}  // namespace arams::core
