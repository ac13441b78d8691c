#include "core/merge.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;
using linalg::MatrixView;

namespace {

/// One FD shrink of `stacked` down to at most `ell` rows (the surviving
/// non-zero rows; at most ℓ−1 of them are non-zero, matching Algorithm 2).
Matrix shrink_to_ell(MatrixView stacked, std::size_t ell,
                     MergeScratch& scratch) {
  if (stacked.rows() <= ell) return stacked.to_matrix();
  linalg::sigma_vt_svd(stacked, scratch.ws, scratch.svd, ell);
  const linalg::SigmaVt& svd = scratch.svd;
  if (svd.sigma.size() < ell) {
    // Fewer directions than ℓ (d < ℓ): nothing needs shrinking; rebuild
    // the ≤ d non-trivial rows verbatim.
    Matrix out(svd.sigma.size(), stacked.cols());
    for (std::size_t i = 0; i < out.rows(); ++i) {
      std::copy(svd.w.row(i).begin(), svd.w.row(i).end(),
                out.row(i).begin());
    }
    return out;
  }
  const double delta = svd.sigma[ell - 1] * svd.sigma[ell - 1];
  const double sigma_floor =
      svd.sigma[0] > 0.0 ? 1e-7 * svd.sigma[0] : 0.0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < ell; ++i) {
    if (svd.sigma[i] * svd.sigma[i] <= delta ||
        svd.sigma[i] <= sigma_floor) {
      break;
    }
    ++keep;
  }
  Matrix out(keep, stacked.cols());
  for (std::size_t i = 0; i < keep; ++i) {
    const double s2 = svd.sigma[i] * svd.sigma[i];
    const double scale = std::sqrt(s2 - delta) / svd.sigma[i];
    const auto wi = svd.w.row(i);
    auto dst = out.row(i);
    for (std::size_t j = 0; j < out.cols(); ++j) {
      dst[j] = scale * wi[j];
    }
  }
  return out;
}

/// Stacks sketches [begin, end) into the workspace's merge-stack slot and
/// returns a view — the allocation-free replacement for chained vstack.
MatrixView stack_group(const std::vector<Matrix>& sketches, std::size_t begin,
                       std::size_t end, linalg::Workspace& ws) {
  const std::size_t cols = sketches[begin].cols();
  std::size_t rows = 0;
  for (std::size_t i = begin; i < end; ++i) {
    ARAMS_CHECK(sketches[i].cols() == cols || sketches[i].rows() == 0,
                "merge of sketches with mismatched widths");
    rows += sketches[i].rows();
  }
  Matrix& stacked = ws.mat(linalg::wslot::kMergeStack, rows, cols);
  std::size_t at = 0;
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t r = 0; r < sketches[i].rows(); ++r) {
      stacked.set_row(at++, sketches[i].row(r));
    }
  }
  return MatrixView(stacked);
}

}  // namespace

Matrix merge_group(const std::vector<Matrix>& sketches, std::size_t ell) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  Matrix stacked = sketches.front();
  for (std::size_t i = 1; i < sketches.size(); ++i) {
    stacked = Matrix::vstack(stacked, sketches[i]);
  }
  MergeScratch scratch;
  return shrink_to_ell(stacked, ell, scratch);
}

Matrix serial_merge(std::vector<Matrix> sketches, std::size_t ell,
                    MergeStats* stats) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  const obs::ScopedSpan span("merge.serial");
  static obs::Counter& merge_ops = obs::metrics().counter("merge.ops");
  MergeStats local;
  MergeScratch scratch;
  Stopwatch wall;
  Matrix acc = std::move(sketches.front());
  for (std::size_t i = 1; i < sketches.size(); ++i) {
    Stopwatch timer;
    merge_ops.add(1);
    acc = shrink_to_ell(Matrix::vstack(acc, sketches[i]), ell, scratch);
    const double s = timer.seconds();
    ++local.merge_ops;
    ++local.levels;
    ++local.critical_path_ops;
    local.total_seconds += s;
    // Serial merging happens on one core: every shrink is on the critical
    // path, and the model equals the measurement.
    local.critical_path_seconds_modeled += s;
  }
  local.critical_path_seconds_measured = wall.seconds();
  if (stats != nullptr) *stats = local;
  return acc;
}

Matrix tree_merge(std::vector<Matrix> sketches, std::size_t ell,
                  std::size_t arity, MergeStats* stats,
                  parallel::ThreadPool* pool,
                  std::vector<MergeScratch>* scratch) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  ARAMS_CHECK(arity >= 2, "tree arity must be >= 2");
  const obs::ScopedSpan span("merge.tree");
  static obs::Counter& merge_ops = obs::metrics().counter("merge.ops");
  static obs::Counter& groups_dispatched =
      obs::metrics().counter("merge.parallel_groups");
  MergeStats local;
  // One scratch slot per concurrent group, sized by the widest level (the
  // first) and reused down the tree. Group g always uses slot g, so the
  // slot→group mapping — and therefore every shrink input — is independent
  // of the pool schedule.
  const std::size_t max_groups = (sketches.size() + arity - 1) / arity;
  std::vector<MergeScratch> call_scratch;
  std::vector<MergeScratch>& slots = scratch != nullptr ? *scratch
                                                        : call_scratch;
  if (slots.size() < max_groups) slots.resize(max_groups);
  std::vector<double> group_seconds(max_groups, 0.0);
  Stopwatch wall;
  while (sketches.size() > 1) {
    const obs::ScopedSpan level_span(
        "merge.level" + std::to_string(local.levels));
    const std::size_t groups = (sketches.size() + arity - 1) / arity;
    std::vector<Matrix> next(groups);
    Stopwatch level_timer;
    const auto run_group = [&](std::size_t g) {
      Stopwatch timer;
      MergeScratch& sc = slots[g];
      const std::size_t begin = g * arity;
      const std::size_t end = std::min(begin + arity, sketches.size());
      next[g] = shrink_to_ell(stack_group(sketches, begin, end, sc.ws), ell,
                              sc);
      group_seconds[g] = timer.seconds();
    };
    const bool pooled =
        pool != nullptr && pool->thread_count() > 1 && groups > 1;
    if (pooled) {
      pool->parallel_for(groups, run_group);
      local.parallel_groups += static_cast<long>(groups);
      groups_dispatched.add(static_cast<long>(groups));
    } else {
      for (std::size_t g = 0; g < groups; ++g) run_group(g);
    }
    merge_ops.add(static_cast<long>(groups));
    local.merge_ops += static_cast<long>(groups);
    double slowest_in_level = 0.0;
    for (std::size_t g = 0; g < groups; ++g) {
      local.total_seconds += group_seconds[g];
      slowest_in_level = std::max(slowest_in_level, group_seconds[g]);
    }
    ++local.levels;
    ++local.critical_path_ops;
    local.critical_path_seconds_modeled += slowest_in_level;
    local.critical_path_seconds_measured += level_timer.seconds();
    sketches = std::move(next);
  }
  if (stats != nullptr) *stats = local;
  return std::move(sketches.front());
}

}  // namespace arams::core
