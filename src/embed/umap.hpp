#pragma once
// UMAP — Uniform Manifold Approximation and Projection (McInnes, Healy,
// Saul, Großberger 2018), reimplemented for stage 3 of the monitoring
// pipeline (latent space → 2-D visualization).
//
// Pipeline: kNN graph → smoothed local metric (ρᵢ, σᵢ via binary search so
// Σⱼ exp(−max(0, dᵢⱼ−ρᵢ)/σᵢ) = log₂(k)) → fuzzy simplicial set union
// (w = wᵢⱼ + wⱼᵢ − wᵢⱼwⱼᵢ) → negative-sampling SGD on the cross-entropy
// layout with the (a, b) curve fitted from min_dist.
//
// Deviations from the reference implementation (documented in DESIGN.md):
// spectral initialization is replaced by PCA initialization (deterministic,
// and the input here is already a PCA latent space).

#include <cstdint>
#include <utility>
#include <vector>

#include "embed/ann/searcher.hpp"
#include "embed/knn.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::embed {

struct UmapConfig {
  std::size_t n_neighbors = 15;
  std::size_t n_components = 2;
  double min_dist = 0.1;
  double spread = 1.0;
  int n_epochs = 300;
  double learning_rate = 1.0;
  int negative_samples = 5;
  double repulsion_strength = 1.0;
  std::uint64_t seed = 42;

  /// kNN searcher configuration (embed/ann/searcher.hpp). The default
  /// "auto" backend dispatches on size: exact at or below
  /// knn.exact_threshold points, rpforest above. knn.seed is overridden
  /// from `seed` so one knob controls the whole embedding.
  AnnConfig knn;

  /// SGD layout strategy.
  ///  * kSerial — the reference single-threaded loop: edges visited in
  ///    order, one shared RNG stream. Bitwise-reproducible run to run.
  ///  * kBatchParallel — umappp-style batch epochs: gradients for each
  ///    epoch are evaluated against a frozen copy of the previous layout,
  ///    edges are split into a fixed number of partitions whose delta
  ///    matrices are reduced in deterministic order, and negative samples
  ///    draw from per-edge split RNG streams. Race-free and deterministic
  ///    regardless of thread count, but a different (batch) update rule, so
  ///    its layouts differ numerically from kSerial's.
  ///  * kAuto — kSerial below ~2·10⁷ edge-epoch visits (every existing
  ///    small-scale caller stays bitwise-identical), kBatchParallel above.
  enum class Optimizer { kSerial, kBatchParallel, kAuto };
  Optimizer optimizer = Optimizer::kAuto;
};

/// Smoothed local metric per point.
struct SmoothKnn {
  std::vector<double> rho;    ///< distance to the nearest neighbour
  std::vector<double> sigma;  ///< bandwidth solving the log₂(k) constraint
};

/// Symmetric weighted graph as an edge list (u < v).
struct FuzzyGraph {
  struct Edge {
    std::size_t u;
    std::size_t v;
    double weight;
  };
  std::size_t n = 0;
  std::vector<Edge> edges;
};

/// Binary-searches σᵢ for every point (Algorithm 3 of the UMAP paper).
SmoothKnn smooth_knn_distances(const KnnGraph& graph,
                               double local_connectivity = 1.0,
                               int iterations = 64);

/// Directed memberships + probabilistic t-conorm symmetrization. The
/// directed (i, j, w) strengths are kept sorted by (i, j) in one flat array
/// (a neighbour listed twice in a row keeps its last weight), reverse
/// weights are found by binary search within row j, and the canonical
/// pairs are deduplicated after one sort. Edges come out in ascending
/// (u, v) order. Throws CheckError on a neighbour index >= graph.n.
FuzzyGraph fuzzy_simplicial_set(const KnnGraph& graph,
                                const SmoothKnn& smooth);

/// Fits (a, b) of the low-dimensional curve 1/(1 + a·x^{2b}) to the target
/// shape exp(−(x−min_dist)/spread) by two-stage grid search. The result
/// depends only on the two arguments, so each thread caches its last
/// (spread, min_dist) → (a, b); a repeated call returns the same bits
/// without searching again.
std::pair<double, double> fit_ab(double spread, double min_dist);

/// The effective searcher config an embedding run derives from `config`:
/// `config.seed` flows into the searcher stream. The streaming monitor
/// uses the same derivation so its warm snapshot index matches what
/// umap_embed would build.
[[nodiscard]] AnnConfig umap_knn_config(const UmapConfig& config);

/// Full UMAP embedding of `points` (n×d) into n×n_components.
linalg::Matrix umap_embed(const linalg::Matrix& points,
                          const UmapConfig& config);

/// Workspace-backed embedding: the kNN build draws its distance blocks
/// from `ws` (see knn.hpp) so repeated snapshot calls reuse scratch.
linalg::Matrix umap_embed(const linalg::Matrix& points,
                          const UmapConfig& config, linalg::Workspace& ws,
                          const DistanceOptions& opts = {});

/// Embedding starting from a caller-supplied kNN graph (lets the pipeline
/// reuse one graph for UMAP and diagnostics).
linalg::Matrix umap_embed_graph(const linalg::Matrix& points,
                                const KnnGraph& graph,
                                const UmapConfig& config);

/// Out-of-sample transform: places `new_points` into an existing embedding
/// without re-optimizing it. Each new point is initialized at the
/// weight-averaged embedding of its kNN among `reference_points` and
/// refined by a short SGD pass attracted to those neighbours (the frozen
/// reference never moves). This is what lets a streaming monitor embed
/// fresh shots at per-shot cost instead of re-running UMAP.
linalg::Matrix umap_transform(const linalg::Matrix& reference_points,
                              const linalg::Matrix& reference_embedding,
                              const linalg::Matrix& new_points,
                              const UmapConfig& config);

/// Workspace-backed transform: new-vs-reference distances come from the
/// blocked GEMM engine in 256-row blocks drawn from `ws`, and per-point
/// refinement fans across the shared pool (each point owns a split RNG
/// stream, so results are deterministic and independent of thread count).
linalg::Matrix umap_transform(const linalg::Matrix& reference_points,
                              const linalg::Matrix& reference_embedding,
                              const linalg::Matrix& new_points,
                              const UmapConfig& config, linalg::Workspace& ws,
                              const DistanceOptions& opts = {});

/// Searcher-backed transform: the reference kNN comes from an already
/// built NeighborSearcher over the reference points (row i of
/// `reference_embedding` must correspond to index i of the searcher). This
/// is the streaming monitor's path — the index is built once per full
/// snapshot and kept warm with insert() across incremental snapshots.
linalg::Matrix umap_transform(NeighborSearcher& reference_index,
                              const linalg::Matrix& reference_embedding,
                              const linalg::Matrix& new_points,
                              const UmapConfig& config, linalg::Workspace& ws,
                              const DistanceOptions& opts = {});

}  // namespace arams::embed
