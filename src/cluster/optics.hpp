#pragma once
// OPTICS — Ordering Points To Identify the Clustering Structure (Ankerst,
// Breunig, Kriegel, Sander 1999) — stage 4 of the monitoring pipeline.
//
// optics() produces the reachability ordering; two extractors turn it into
// labels: extract_dbscan (an ε-cut, equivalent to DBSCAN at that ε) and
// extract_xi (ξ-steep up/down cluster boundaries). extract_auto picks the
// ε-cut at a reachability quantile — a robust default when the operator
// has no prior on density, which is the monitoring situation.

#include <limits>
#include <vector>

#include "embed/ann/searcher.hpp"
#include "embed/distance.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace arams::cluster {

struct OpticsConfig {
  std::size_t min_pts = 5;  ///< core-point neighbourhood size
  double max_eps = std::numeric_limits<double>::infinity();
};

struct OpticsResult {
  std::vector<std::size_t> order;      ///< visit order of the points
  std::vector<double> reachability;    ///< reachability distance per point
  std::vector<double> core_distance;   ///< core distance per point
};

/// Runs OPTICS with brute-force range queries (O(n²) — the embeddings this
/// pipeline clusters are 2-D and a few thousand points). Each visited
/// point's full d² row comes from the shared engine as one 1×n block
/// (embed/distance.hpp), with all point norms hoisted out of the traversal.
/// The core distance is the square root of the (min_pts−1)-th smallest
/// finite d² to another point, picked by embed::select_k. One fused pass
/// over the unprocessed points then lowers their reachabilities through the
/// visited point and picks the next point to visit: the smallest
/// (reachability, index), or the smallest unprocessed index when no
/// reachability is finite. There is no seed heap.
/// sqrt is correctly rounded and monotone, and that lexicographic argmin is
/// exactly the entry a lazy-deletion heap of (reachability, index) pops, so
/// order, reachability and core distance equal the heap formulation of
/// Ankerst et al. bit for bit. Range-query wall time per call (the d² row
/// plus the core selection) accumulates into the
/// "cluster.core_dist_seconds" histogram. The traversal is sequential, so
/// the ordering is identical for any pool size.
OpticsResult optics(const linalg::Matrix& points, const OpticsConfig& config);

/// Workspace-backed variant: the range-query block and point norms come
/// from `ws`. `opts.use_gemm = false` reproduces the historical per-pair
/// scalar arithmetic bit for bit.
OpticsResult optics(const linalg::Matrix& points, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts = {});

/// Searcher-backed variant: range queries go through
/// NeighborSearcher::sq_dists_to over the index's stored points (the two
/// overloads above delegate here with a local `exact` index). An exact
/// index reproduces the historical arithmetic bit for bit.
OpticsResult optics(embed::NeighborSearcher& index, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts = {});

/// ε-cut extraction: walking the ordering, a point with reachability > eps
/// starts a new cluster if it is a core point at eps, else is noise (-1).
std::vector<int> extract_dbscan(const OpticsResult& result, double eps);

/// ξ-extraction (simplified valley finder): clusters are maximal runs of
/// the ordering whose reachability sits below (1−ξ) times the bounding
/// steep edges. min_cluster_size filters fragments.
std::vector<int> extract_xi(const OpticsResult& result, double xi,
                            std::size_t min_cluster_size = 5);

/// ε-cut at the given quantile of finite reachability values.
std::vector<int> extract_auto(const OpticsResult& result,
                              double quantile = 0.75);

/// Number of clusters in a label vector (ignoring noise = -1).
std::size_t cluster_count(const std::vector<int>& labels);

}  // namespace arams::cluster
