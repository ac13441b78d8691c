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
/// pipeline clusters are 2-D and a few thousand points), in two phases.
///
/// Phase one computes every core distance up front (core_distances below):
/// a core distance does not depend on the visit order, so the rows run in
/// bands on the shared pool. Phase two is the sequential traversal over a
/// compacted live set of the unvisited points: each visit lowers the live
/// reachabilities through the visited point, forming d² only where
/// core(p) < reach(q), and picks the next point as the lexicographically
/// smallest (reachability, index), +inf included. That is the entry a
/// lazy-deletion heap of (reachability, index) pops next and, when no
/// reachability is finite, the restart at the smallest unvisited index.
/// Every d² is formed with the arithmetic of one
/// NeighborSearcher::sq_dists_to row, so order, reachability and core
/// distance equal the heap formulation of Ankerst et al. over those rows
/// bit for bit, at any pool size and with or without allow_parallel.
/// Throws CheckError naming the row and column of a NaN or ±inf point.
/// The wall time of phase one goes to the "cluster.core_dist_seconds"
/// histogram.
OpticsResult optics(const linalg::Matrix& points, const OpticsConfig& config);

/// Workspace-backed variant: the transposed points, norms and live-set
/// arrays come from `ws`, so repeated calls at one size do not allocate
/// them. `opts.use_gemm = false` reproduces the historical per-pair scalar
/// arithmetic bit for bit; `opts.allow_parallel = false` keeps phase one
/// on the calling thread.
OpticsResult optics(const linalg::Matrix& points, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts = {});

/// Core distance of every point: the square root of the k-th smallest d²
/// from the point to another one, the self pair excluded (OPTICS takes
/// k = min_pts − 1, HDBSCAN k = min_samples). d² has the arithmetic of
/// one NeighborSearcher::sq_dists_to row under `opts`, and the rows run in
/// bands on the shared pool unless `opts.allow_parallel` is false; the
/// result is the same bits either way. Requires 1 <= k < n, and throws
/// CheckError naming the row and column of a NaN or ±inf point.
std::vector<double> core_distances(const linalg::Matrix& points,
                                   std::size_t k,
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
