#pragma once
// Fast Angle-Based Outlier Detection (Kriegel, Schubert, Zimek 2008) — the
// anomaly-detection option Section VI mentions for flagging exotic beam
// profiles in the embedded space.
//
// FastABOD approximates the angle-based outlier factor using only each
// point's k nearest neighbours: ABOF(p) is the weighted variance, over
// neighbour pairs (a, b), of ⟨pa, pb⟩ / (‖pa‖²·‖pb‖²), weighted by
// 1/(‖pa‖·‖pb‖). Points deep inside a cluster see neighbours at widely
// varying angles (high variance); outliers see everything in a narrow cone
// (low variance). Low score ⇒ outlier.

#include <vector>

#include "embed/ann/searcher.hpp"
#include "embed/knn.hpp"
#include "linalg/matrix.hpp"

namespace arams::cluster {

struct AbodConfig {
  std::size_t k = 10;  ///< neighbourhood size

  /// kNN searcher used for the neighbourhood graph; the default "auto"
  /// backend keeps the historical exact graph below knn.exact_threshold
  /// points and switches to rpforest above.
  embed::AnnConfig knn;
};

/// ABOF score per point (low = outlying).
std::vector<double> fast_abod(const linalg::Matrix& points,
                              const AbodConfig& config);

/// Workspace-backed FastABOD: the kNN build and the per-point pair
/// statistics run through the shared distance engine — each point's k
/// neighbour-difference vectors are assembled once and their Gram matrix
/// G(a,b) = ⟨pa, pb⟩ supplies every pairwise inner product and norm, so the
/// O(k²) angle loop does O(1) work per pair instead of O(d). Each score
/// depends on its own point alone, so the points run in bands on the
/// shared pool (embed::graph_loop_pool, honouring `opts.allow_parallel`)
/// and the scores have the same bits at any pool size.
std::vector<double> fast_abod(const linalg::Matrix& points,
                              const AbodConfig& config,
                              linalg::Workspace& ws,
                              const embed::DistanceOptions& opts = {});

/// Exact ABOD over all point pairs — O(n³·d); reference implementation for
/// validating FastABOD's ranking on small sets.
std::vector<double> exact_abod(const linalg::Matrix& points);

/// Indices of the `count` lowest-scoring (most outlying) points, most
/// outlying first.
std::vector<std::size_t> top_outliers(const std::vector<double>& scores,
                                      std::size_t count);

}  // namespace arams::cluster
