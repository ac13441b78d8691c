#pragma once
// The single-threaded UMAP layout loop, kept as the quality reference for
// the library's owned-chunk layout: edges visited in (u, v) order, one RNG
// stream, every move (heads, tails, negative samples) applied in place at
// once. The library's per-edge rule is this loop's, so the two differ only
// in which copy of a row a visit reads and in the negative-sample streams.

#include <algorithm>
#include <cmath>
#include <vector>

#include "embed/knn.hpp"
#include "embed/umap.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::test {

inline double serial_clip4(double v) { return std::clamp(v, -4.0, 4.0); }

/// The reference loop, with the SGD settings the library fixes: learning
/// rate 1, 5 negative samples per visit, repulsion strength 1.
inline void serial_optimize_layout(linalg::Matrix& y,
                                   const embed::FuzzyGraph& graph,
                                   int n_epochs, double a, double b,
                                   Rng& rng) {
  constexpr double kLearningRate = 1.0;
  constexpr int kNegativeSamples = 5;
  constexpr double kRepulsionStrength = 1.0;
  const std::size_t n = y.rows();
  const std::size_t dim = y.cols();
  if (graph.edges.empty()) return;

  double w_max = 0.0;
  for (const auto& e : graph.edges) w_max = std::max(w_max, e.weight);

  const std::size_t m = graph.edges.size();
  std::vector<double> epochs_per_sample(m);
  std::vector<double> epoch_of_next(m);
  std::vector<double> epochs_per_negative(m);
  std::vector<double> epoch_of_next_negative(m);
  for (std::size_t e = 0; e < m; ++e) {
    epochs_per_sample[e] = w_max / graph.edges[e].weight;
    epoch_of_next[e] = epochs_per_sample[e];
    epochs_per_negative[e] = epochs_per_sample[e] / kNegativeSamples;
    epoch_of_next_negative[e] = epochs_per_negative[e];
  }

  const double gamma = kRepulsionStrength;
  for (int epoch = 1; epoch <= n_epochs; ++epoch) {
    const double alpha =
        kLearningRate *
        (1.0 - static_cast<double>(epoch) / static_cast<double>(n_epochs));
    for (std::size_t e = 0; e < m; ++e) {
      if (epoch_of_next[e] > epoch) continue;
      const auto& edge = graph.edges[e];
      auto yu = y.row(edge.u);
      auto yv = y.row(edge.v);

      // Attractive move along the edge.
      double d2 = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        const double diff = yu[c] - yv[c];
        d2 += diff * diff;
      }
      if (d2 > 0.0) {
        const double coeff = (-2.0 * a * b * std::pow(d2, b - 1.0)) /
                             (1.0 + a * std::pow(d2, b));
        for (std::size_t c = 0; c < dim; ++c) {
          const double g = serial_clip4(coeff * (yu[c] - yv[c]));
          yu[c] += alpha * g;
          yv[c] -= alpha * g;
        }
      }
      epoch_of_next[e] += epochs_per_sample[e];

      // Negative (repulsive) samples for the head vertex.
      const int n_neg = static_cast<int>(
          (epoch - epoch_of_next_negative[e]) / epochs_per_negative[e]) + 1;
      for (int s = 0; s < n_neg; ++s) {
        const std::size_t r = rng.uniform_index(n);
        if (r == edge.u || r == edge.v) continue;
        const auto yr = y.row(r);
        double rd2 = 0.0;
        for (std::size_t c = 0; c < dim; ++c) {
          const double diff = yu[c] - yr[c];
          rd2 += diff * diff;
        }
        double coeff = 0.0;
        if (rd2 > 0.0) {
          coeff = (2.0 * gamma * b) /
                  ((0.001 + rd2) * (1.0 + a * std::pow(rd2, b)));
        }
        for (std::size_t c = 0; c < dim; ++c) {
          const double g =
              (coeff > 0.0) ? serial_clip4(coeff * (yu[c] - yr[c])) : 4.0;
          yu[c] += alpha * g;
        }
      }
      epoch_of_next_negative[e] +=
          epochs_per_negative[e] * static_cast<double>(n_neg);
    }
  }
}

/// umap_embed_graph with the reference loop in place of the library's
/// layout. The initial layout is the library's own (umap_embed_graph at
/// zero epochs), and the stream replays the init's draws (one jitter
/// normal per coordinate, or one uniform per coordinate on the random
/// fallback), so the loop starts from the state the init leaves.
inline linalg::Matrix serial_reference_embed(const linalg::Matrix& points,
                                             const embed::KnnGraph& graph,
                                             const embed::UmapConfig& config) {
  embed::UmapConfig init = config;
  init.n_epochs = 0;
  linalg::Matrix y = embed::umap_embed_graph(points, graph, init);
  Rng rng(config.seed);
  for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
    if (points.cols() >= config.n_components) {
      (void)rng.normal();
    } else {
      (void)rng.uniform(-10.0, 10.0);
    }
  }
  const embed::FuzzyGraph fuzzy = embed::fuzzy_simplicial_set(
      graph, embed::smooth_knn_distances(graph));
  const auto [a, b] = embed::fit_ab(config.spread, config.min_dist);
  serial_optimize_layout(y, fuzzy, config.n_epochs, a, b, rng);
  return y;
}

}  // namespace arams::test
