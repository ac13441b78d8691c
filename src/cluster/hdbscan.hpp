#pragma once
// HDBSCAN* (Campello, Moulavi, Sander 2013) — hierarchical density-based
// clustering with stability-based flat extraction.
//
// The paper's artifact environment ships the hdbscan package alongside
// OPTICS; HDBSCAN is the robust default when cluster densities differ (a
// single OPTICS ε-cut cannot recover clusters of different densities — see
// the tests). Dense O(n²) implementation, matching the embedding sizes the
// monitoring pipeline produces:
//   1. core distance = distance to the min_samples-th neighbour;
//   2. mutual reachability d_mr(a,b) = max(core_a, core_b, d(a,b));
//   3. minimum spanning tree of the mutual-reachability graph (Prim);
//   4. single-linkage hierarchy from the sorted MST edges;
//   5. condensed tree with min_cluster_size;
//   6. flat clusters = the stability-maximizing antichain.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace arams::cluster {

struct HdbscanConfig {
  std::size_t min_samples = 5;       ///< core-distance neighbourhood
  std::size_t min_cluster_size = 5;  ///< smallest cluster kept
  /// Let the root (the whole dataset) win the stability competition. Off
  /// by default, matching the reference implementation: a monitoring view
  /// that labels every shot as one cluster carries no information.
  bool allow_single_cluster = false;
};

struct HdbscanResult {
  std::vector<int> labels;            ///< cluster per point, −1 = noise
  std::vector<double> probabilities;  ///< in-cluster membership strength
  std::size_t num_clusters = 0;
};

/// Runs HDBSCAN* over Euclidean points (n×d). Requires
/// n > min_samples and min_cluster_size >= 2, and throws CheckError naming
/// the row and column of a NaN or ±inf point. The core distances come from
/// cluster::core_distances (the pass OPTICS runs, on the shared pool) with
/// per-pair scalar arithmetic.
HdbscanResult hdbscan(const linalg::Matrix& points,
                      const HdbscanConfig& config);

}  // namespace arams::cluster
