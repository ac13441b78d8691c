#pragma once
// k-nearest-neighbour graphs over latent points.
//
// Two building blocks for the searchers in ann/searcher.hpp: exact brute
// force (blocked GEMM distance blocks from the shared engine in
// distance.hpp plus a per-row partial select — the latent dimension is
// small after PCA, so this is fine for the few-thousand-point embeddings
// the monitoring pipeline draws), and NN-descent refinement (Dong et al.
// 2011), the local-join passes the rpforest searcher runs over its
// leaf-co-membership seed graph. Both record their wall time in the
// "embed.knn_seconds" histogram.
//
// The workspace overloads draw every scratch block (distance block, row
// norms, gathered candidate Gram) from a caller-owned linalg::Workspace and
// reuse the output graph's storage, so a snapshot loop that rebuilds the
// graph at a fixed shape performs no steady-state heap allocations on the
// serial path. The plain overloads are conveniences that own a local
// workspace per call.

#include <cstddef>
#include <utility>
#include <vector>

#include "embed/distance.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace arams::embed {

/// Flat kNN graph: neighbor j of point i sits at index i*k + j, sorted by
/// ascending distance. Distances are Euclidean.
struct KnnGraph {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::size_t> neighbors;  ///< n·k indices
  std::vector<double> distances;       ///< n·k distances

  [[nodiscard]] std::size_t neighbor(std::size_t i, std::size_t j) const {
    return neighbors[i * k + j];
  }
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const {
    return distances[i * k + j];
  }
};

/// Selects the k lexicographically-smallest (value, index) pairs of
/// `value(j)`, j in [0, n), skipping `self` (pass n or larger to keep every
/// j), into `best` (caller scratch, resized to k) in ascending order.
/// Requires k >= 1 and at least k candidates. `value` is invoked once per
/// candidate in ascending j, so callers fuse the Gram-trick fix-up into it.
///
/// Bounded insertion scan: one pass with an O(1) reject against the current
/// k-th value, shift-inserting the rare survivor. Equal values keep the
/// lower index first and, because j ascends, a candidate tying the current
/// worst can never improve on it — so the output is exactly what building
/// all pairs and partial_sort-ing them would give, at a fraction of its
/// memory traffic. A NaN compares false against everything and would take
/// a slot, so callers whose values can be NaN map it to +inf first.
template <typename ValueFn>
void select_k(std::size_t n, std::size_t self, std::size_t k,
              std::vector<std::pair<double, std::size_t>>& best,
              ValueFn value) {
  best.resize(k);
  std::size_t filled = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;
    const double d = value(j);
    if (filled == k && d >= best[k - 1].first) continue;
    std::size_t pos = filled < k ? filled : k - 1;
    while (pos > 0 && best[pos - 1].first > d) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = {d, j};
    if (filled < k) ++filled;
  }
}

/// Exact kNN by blocked brute force. Excludes self-neighbours. Requires
/// k < n.
KnnGraph exact_knn(const linalg::Matrix& points, std::size_t k);

/// Workspace-backed exact kNN: distance blocks and selection scratch come
/// from `ws`, the graph is rebuilt in place into `out`.
void exact_knn(const linalg::Matrix& points, std::size_t k,
               linalg::Workspace& ws, KnnGraph& out,
               const DistanceOptions& opts = {});

/// Refines an existing kNN graph in place with at most `iters` NN-descent
/// local-join passes (fewer once a pass updates under 0.1% of the n·k
/// entries); `sample_rate` < 1 joins a random subset of each pass's new
/// candidates. `graph` must cover `points` (n == points.rows()) with k
/// neighbours per point, none a self or out-of-range index, each with its
/// Euclidean distance, in any order; the refined graph comes back sorted
/// ascending. The rpforest searcher seeds it from leaf co-membership,
/// which converges in far fewer passes than a random graph. Candidate
/// pairs are scored through gathered Gram blocks drawn from `ws` when
/// `opts.use_gemm`, by per-pair scalar loops otherwise.
void nn_descent_refine(const linalg::Matrix& points, Rng& rng,
                       linalg::Workspace& ws, KnnGraph& graph, int iters,
                       double sample_rate = 1.0,
                       const DistanceOptions& opts = {});

/// Fraction of true kNN edges recovered (test / diagnostic helper).
double knn_recall(const KnnGraph& approx, const KnnGraph& exact);

}  // namespace arams::embed
