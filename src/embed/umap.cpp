#include "embed/umap.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "embed/pca.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace arams::embed {

using linalg::Matrix;

SmoothKnn smooth_knn_distances(const KnnGraph& graph,
                               double local_connectivity, int iterations) {
  const std::size_t n = graph.n;
  const std::size_t k = graph.k;
  SmoothKnn out;
  out.rho.resize(n, 0.0);
  out.sigma.resize(n, 1.0);
  const double target = std::log2(static_cast<double>(k));

  for (std::size_t i = 0; i < n; ++i) {
    // ρᵢ: distance to the ⌈local_connectivity⌉-th non-zero neighbour
    // (interpolated; with the default 1.0 this is simply the nearest).
    std::vector<double> nonzero;
    nonzero.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      const double d = graph.distance(i, j);
      if (d > 0.0) nonzero.push_back(d);
    }
    if (!nonzero.empty()) {
      const auto idx = static_cast<std::size_t>(
          std::floor(local_connectivity)) ;
      if (idx >= 1 && idx <= nonzero.size()) {
        const double frac = local_connectivity - std::floor(local_connectivity);
        out.rho[i] = nonzero[idx - 1];
        if (frac > 0.0 && idx < nonzero.size()) {
          out.rho[i] += frac * (nonzero[idx] - nonzero[idx - 1]);
        }
      } else {
        out.rho[i] = *std::max_element(nonzero.begin(), nonzero.end());
      }
    }

    // Binary search σᵢ so that Σⱼ exp(−max(0, dᵢⱼ−ρᵢ)/σᵢ) = log₂(k).
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    double mid = 1.0;
    for (int it = 0; it < iterations; ++it) {
      double sum = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const double d = graph.distance(i, j) - out.rho[i];
        sum += (d <= 0.0) ? 1.0 : std::exp(-d / mid);
      }
      if (std::abs(sum - target) < 1e-5) break;
      if (sum > target) {
        hi = mid;
        mid = (lo + hi) / 2.0;
      } else {
        lo = mid;
        mid = std::isinf(hi) ? mid * 2.0 : (lo + hi) / 2.0;
      }
    }
    // Bandwidth floor relative to the mean neighbour distance, as in the
    // reference implementation.
    double mean_d = 0.0;
    for (std::size_t j = 0; j < k; ++j) mean_d += graph.distance(i, j);
    mean_d /= static_cast<double>(k);
    out.sigma[i] = std::max(mid, 1e-3 * mean_d);
    if (out.sigma[i] <= 0.0) out.sigma[i] = 1.0;
  }
  return out;
}

FuzzyGraph fuzzy_simplicial_set(const KnnGraph& graph,
                                const SmoothKnn& smooth) {
  const std::size_t n = graph.n;
  const std::size_t k = graph.k;
  // Directed membership strengths, sorted by (i, j): row i's targets sit
  // ascending in directed[row_start[i], row_start[i + 1]).
  struct Directed {
    std::size_t j;
    double w;
  };
  std::vector<Directed> directed;
  directed.reserve(n * k);
  std::vector<std::size_t> row_start(n + 1, 0);
  std::vector<std::pair<std::size_t, std::size_t>> row(k);  // (target, slot)
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t slot = 0; slot < k; ++slot) {
      const std::size_t t = graph.neighbor(i, slot);
      ARAMS_CHECK(t < n, "kNN graph neighbour " + std::to_string(t) +
                             " out of range for " + std::to_string(n) +
                             " points");
      row[slot] = {t, slot};
    }
    std::sort(row.begin(), row.end());
    row_start[i] = directed.size();
    for (std::size_t r = 0; r < k; ++r) {
      // A target listed twice keeps the weight of its last listing.
      if (r + 1 < k && row[r + 1].first == row[r].first) continue;
      const auto [t, slot] = row[r];
      const double d = graph.distance(i, slot) - smooth.rho[i];
      const double w = (d <= 0.0) ? 1.0 : std::exp(-d / smooth.sigma[i]);
      directed.push_back({t, w});
    }
  }
  row_start[n] = directed.size();
  const auto weight = [&](std::size_t i, std::size_t j) {
    const auto first = directed.begin() +
                       static_cast<std::ptrdiff_t>(row_start[i]);
    const auto last = directed.begin() +
                      static_cast<std::ptrdiff_t>(row_start[i + 1]);
    const auto it = std::lower_bound(
        first, last, j,
        [](const Directed& e, std::size_t t) { return e.j < t; });
    return (it != last && it->j == j) ? it->w : 0.0;
  };

  // w = a + b − ab per canonical (u < v) pair. Both directions of a mutual
  // pair give the same bits (IEEE + and × commute), so after sorting the
  // duplicates are dropped.
  FuzzyGraph out;
  out.n = n;
  std::vector<FuzzyGraph::Edge>& edges = out.edges;
  edges.reserve(directed.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = row_start[i]; e < row_start[i + 1]; ++e) {
      const auto [j, w] = directed[e];
      const double wr = weight(j, i);
      const auto [u, v] = std::minmax(i, j);
      edges.push_back({u, v, w + wr - w * wr});
    }
  }
  const auto key_less = [](const FuzzyGraph::Edge& a,
                           const FuzzyGraph::Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::sort(edges.begin(), edges.end(), key_less);
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const FuzzyGraph::Edge& a,
                             const FuzzyGraph::Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  std::erase_if(edges, [](const FuzzyGraph::Edge& e) {
    return !(e.weight > 0.0);
  });
  return out;
}

namespace {

/// fit_ab's two-stage grid search (arguments already validated).
std::pair<double, double> fit_ab_grid(double spread, double min_dist) {
  // Target curve ψ(x): 1 on [0, min_dist], exp decay beyond.
  constexpr int kSamples = 300;
  std::vector<double> xs(kSamples), ys(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    const double x = 3.0 * spread * (s + 0.5) / kSamples;
    xs[s] = x;
    ys[s] = (x <= min_dist) ? 1.0 : std::exp(-(x - min_dist) / spread);
  }
  const auto loss = [&](double a, double b) {
    double l = 0.0;
    for (int s = 0; s < kSamples; ++s) {
      const double f = 1.0 / (1.0 + a * std::pow(xs[s], 2.0 * b));
      const double diff = f - ys[s];
      l += diff * diff;
    }
    return l;
  };
  // Two-stage grid search: coarse, then refined around the best cell.
  double best_a = 1.0, best_b = 1.0, best = loss(1.0, 1.0);
  for (int stage = 0; stage < 3; ++stage) {
    const double ra = (stage == 0) ? 3.0 : std::pow(0.3, stage);
    const double rb = (stage == 0) ? 1.2 : std::pow(0.3, stage);
    const double a0 = (stage == 0) ? 0.05 : best_a;
    const double b0 = (stage == 0) ? 0.3 : best_b;
    for (int ia = -20; ia <= 20; ++ia) {
      const double a = (stage == 0)
                           ? a0 * std::pow(10.0, ia * ra / 20.0)
                           : a0 * (1.0 + ra * ia / 20.0);
      if (a <= 0.0) continue;
      for (int ib = -20; ib <= 20; ++ib) {
        const double b = (stage == 0) ? b0 + (ib + 20) * rb / 20.0
                                      : b0 * (1.0 + rb * ib / 20.0);
        if (b <= 0.05) continue;
        const double l = loss(a, b);
        if (l < best) {
          best = l;
          best_a = a;
          best_b = b;
        }
      }
    }
  }
  return {best_a, best_b};
}

}  // namespace

std::pair<double, double> fit_ab(double spread, double min_dist) {
  ARAMS_CHECK(spread > 0.0, "spread must be positive");
  ARAMS_CHECK(min_dist >= 0.0 && min_dist < 3.0 * spread,
              "min_dist out of range");
  // The grid search costs tens of milliseconds and every umap_embed and
  // umap_transform asks for the same pair, so each thread keeps its last
  // result. spread = 0 never passes the checks, so the empty entry never
  // matches.
  struct Entry {
    double spread = 0.0;
    double min_dist = 0.0;
    std::pair<double, double> ab;
  };
  thread_local Entry last;
  if (last.spread != spread || last.min_dist != min_dist) {
    last = {spread, min_dist, fit_ab_grid(spread, min_dist)};
  }
  return last.ab;
}

namespace {

/// PCA initialization (the documented deviation from spectral init). An
/// input with fewer columns than n_components has no such projection and
/// starts uniform in the same [-10, 10] box instead.
Matrix initialize_embedding(const Matrix& points, const UmapConfig& config,
                            Rng& rng) {
  const std::size_t n = points.rows();
  Matrix y(n, config.n_components);
  if (points.cols() >= config.n_components) {
    // Center, project on top components, rescale to [-10, 10].
    Matrix centered = points;
    std::vector<double> mean(points.cols(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(1.0, points.row(i), mean);
    }
    linalg::scale(mean, 1.0 / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(-1.0, mean, centered.row(i));
    }
    const PcaProjector pca(centered, config.n_components);
    y = pca.project(centered);
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const double v : y.row(i)) mx = std::max(mx, std::abs(v));
    }
    if (mx > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        linalg::scale(y.row(i), 10.0 / mx);
      }
    }
    // Tiny jitter breaks exact ties so SGD does not divide by zero.
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : y.row(i)) v += 1e-4 * rng.normal();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : y.row(i)) v = rng.uniform(-10.0, 10.0);
    }
  }
  return y;
}

double clip4(double v) { return std::clamp(v, -4.0, 4.0); }

void optimize_layout(Matrix& y, const FuzzyGraph& graph,
                     const UmapConfig& config, double a, double b, Rng& rng) {
  const std::size_t n = y.rows();
  const std::size_t dim = y.cols();
  const int n_epochs = config.n_epochs;
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
    epochs_per_negative[e] =
        epochs_per_sample[e] / std::max(config.negative_samples, 1);
    epoch_of_next_negative[e] = epochs_per_negative[e];
  }

  const double gamma = config.repulsion_strength;
  for (int epoch = 1; epoch <= n_epochs; ++epoch) {
    const double alpha =
        config.learning_rate *
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
          const double g = clip4(coeff * (yu[c] - yv[c]));
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
              (coeff > 0.0) ? clip4(coeff * (yu[c] - yr[c])) : 4.0;
          yu[c] += alpha * g;
        }
      }
      epoch_of_next_negative[e] +=
          epochs_per_negative[e] * static_cast<double>(n_neg);
    }
  }
}

/// Batch-parallel layout (umappp-style). Per epoch: the layout is frozen
/// into y_prev, the edge list is split into kPartitions fixed contiguous
/// ranges, and each partition accumulates its gradient steps into a private
/// delta matrix while reading only y_prev. Deltas are then folded into y in
/// partition order. Nothing shared is written concurrently (TSan-clean) and
/// both the partitioning and the reduction order are independent of the
/// pool size, so the result is deterministic for any thread count —
/// including one, which is how the serial-equivalence test runs it.
/// Negative samples come from per-edge-per-epoch split RNG streams.
void optimize_layout_batch(Matrix& y, const FuzzyGraph& graph,
                           const UmapConfig& config, double a, double b,
                           const Rng& rng) {
  const std::size_t n = y.rows();
  const std::size_t dim = y.cols();
  const int n_epochs = config.n_epochs;
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
    epochs_per_negative[e] =
        epochs_per_sample[e] / std::max(config.negative_samples, 1);
    epoch_of_next_negative[e] = epochs_per_negative[e];
  }

  constexpr std::size_t kPartitions = 16;
  const std::size_t parts = std::min(kPartitions, m);
  std::vector<Matrix> deltas;
  deltas.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) deltas.emplace_back(n, dim);
  Matrix y_prev(n, dim);

  parallel::ThreadPool& pool = parallel::shared_pool();
  const bool parallel_epochs = pool.thread_count() >= 2;

  const double gamma = config.repulsion_strength;
  for (int epoch = 1; epoch <= n_epochs; ++epoch) {
    const double alpha =
        config.learning_rate *
        (1.0 - static_cast<double>(epoch) / static_cast<double>(n_epochs));
    std::copy(y.data(), y.data() + n * dim, y_prev.data());

    const auto run_partition = [&](std::size_t p) {
      Matrix& delta = deltas[p];
      std::fill(delta.data(), delta.data() + n * dim, 0.0);
      const std::size_t e0 = m * p / parts;
      const std::size_t e1 = m * (p + 1) / parts;
      for (std::size_t e = e0; e < e1; ++e) {
        if (epoch_of_next[e] > epoch) continue;
        const auto& edge = graph.edges[e];
        const auto yu = y_prev.row(edge.u);
        const auto yv = y_prev.row(edge.v);
        auto du = delta.row(edge.u);
        auto dv = delta.row(edge.v);

        double d2 = 0.0;
        for (std::size_t c = 0; c < dim; ++c) {
          const double diff = yu[c] - yv[c];
          d2 += diff * diff;
        }
        if (d2 > 0.0) {
          const double coeff = (-2.0 * a * b * std::pow(d2, b - 1.0)) /
                               (1.0 + a * std::pow(d2, b));
          for (std::size_t c = 0; c < dim; ++c) {
            const double g = clip4(coeff * (yu[c] - yv[c]));
            du[c] += alpha * g;
            dv[c] -= alpha * g;
          }
        }
        epoch_of_next[e] += epochs_per_sample[e];

        const int n_neg = static_cast<int>(
            (epoch - epoch_of_next_negative[e]) / epochs_per_negative[e]) + 1;
        Rng neg_rng = rng.split(static_cast<std::uint64_t>(epoch) * m + e);
        for (int s = 0; s < n_neg; ++s) {
          const std::size_t r = neg_rng.uniform_index(n);
          if (r == edge.u || r == edge.v) continue;
          const auto yr = y_prev.row(r);
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
                (coeff > 0.0) ? clip4(coeff * (yu[c] - yr[c])) : 4.0;
            du[c] += alpha * g;
          }
        }
        epoch_of_next_negative[e] +=
            epochs_per_negative[e] * static_cast<double>(n_neg);
      }
    };

    if (parallel_epochs) {
      pool.parallel_for(parts, run_partition);
    } else {
      for (std::size_t p = 0; p < parts; ++p) run_partition(p);
    }

    // Deterministic reduction: partition 0 first, always.
    for (std::size_t p = 0; p < parts; ++p) {
      const double* src = deltas[p].data();
      double* dst = y.data();
      for (std::size_t i = 0; i < n * dim; ++i) dst[i] += src[i];
    }
  }
}

/// Resolves UmapConfig::Optimizer::kAuto by total edge-epoch visit count.
bool use_batch_optimizer(const FuzzyGraph& graph, const UmapConfig& config) {
  switch (config.optimizer) {
    case UmapConfig::Optimizer::kSerial:
      return false;
    case UmapConfig::Optimizer::kBatchParallel:
      return true;
    case UmapConfig::Optimizer::kAuto:
      break;
  }
  const double visits = static_cast<double>(graph.edges.size()) *
                        static_cast<double>(std::max(config.n_epochs, 0));
  return visits >= 2e7;
}

}  // namespace

Matrix umap_embed_graph(const Matrix& points, const KnnGraph& graph,
                        const UmapConfig& config) {
  ARAMS_CHECK(points.rows() == graph.n, "graph does not match points");
  ARAMS_CHECK(config.n_components >= 1, "need at least one component");
  Rng rng(config.seed);

  const SmoothKnn smooth = smooth_knn_distances(graph);
  const FuzzyGraph fuzzy = fuzzy_simplicial_set(graph, smooth);
  const auto [a, b] = fit_ab(config.spread, config.min_dist);

  Matrix y = initialize_embedding(points, config, rng);
  if (use_batch_optimizer(fuzzy, config)) {
    optimize_layout_batch(y, fuzzy, config, a, b, rng);
  } else {
    optimize_layout(y, fuzzy, config, a, b, rng);
  }
  return y;
}

namespace {

/// Places one new point given its k nearest reference neighbours (indices
/// `nbr`, ascending Euclidean distances `ndist` — one row of the searcher's
/// query_batch output): weighted-average init from the k nearest, then a
/// short attract-only refinement driven by the point's own RNG stream (so
/// every point is independent and the loop can fan across the pool).
void place_new_point(std::span<const std::size_t> nbr,
                     std::span<const double> ndist,
                     const Matrix& reference_embedding,
                     const UmapConfig& config, double a, double b,
                     const Rng& base_rng, std::size_t point_index,
                     std::span<double> yi) {
  const std::size_t k = nbr.size();
  const std::size_t dim = yi.size();
  thread_local std::vector<double> w;

  // Membership weights from the same smooth-kNN kernel.
  const double rho = ndist[0];
  double sigma = std::max(ndist[k - 1] - rho, 1e-3 * (rho + 1e-12));
  if (sigma <= 0.0) sigma = 1.0;
  w.resize(k);
  double wsum = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double d = ndist[j] - rho;
    w[j] = (d <= 0.0) ? 1.0 : std::exp(-d / sigma);
    wsum += w[j];
  }

  // Init: weighted average of neighbour embeddings.
  for (std::size_t c = 0; c < dim; ++c) yi[c] = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto ref = reference_embedding.row(nbr[j]);
    for (std::size_t c = 0; c < dim; ++c) {
      yi[c] += (w[j] / wsum) * ref[c];
    }
  }

  // Short attract-only refinement toward the neighbours (the reference
  // embedding is frozen; repulsion would need global context).
  Rng rng = base_rng.split(point_index);
  const int epochs = std::max(config.n_epochs / 6, 10);
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    const double alpha = config.learning_rate * 0.5 *
                         (1.0 - static_cast<double>(epoch) / epochs);
    const std::size_t j = rng.uniform_index(k);
    const auto ref = reference_embedding.row(nbr[j]);
    double d2 = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double diff = yi[c] - ref[c];
      d2 += diff * diff;
    }
    if (d2 <= 0.0) continue;
    const double coeff = (-2.0 * a * b * std::pow(d2, b - 1.0)) /
                         (1.0 + a * std::pow(d2, b));
    for (std::size_t c = 0; c < dim; ++c) {
      yi[c] += alpha * (w[j] / wsum) *
               clip4(coeff * (yi[c] - ref[c]));
    }
  }
}

}  // namespace

Matrix umap_transform(NeighborSearcher& reference_index,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config,
                      linalg::Workspace& ws, const DistanceOptions& opts) {
  const std::size_t n_ref = reference_index.size();
  ARAMS_CHECK(n_ref == reference_embedding.rows(),
              "reference index/embedding row mismatch");
  ARAMS_CHECK(new_points.cols() == reference_index.dim(),
              "new points have a different dimension");
  ARAMS_CHECK(n_ref > config.n_neighbors,
              "need more reference points than n_neighbors");
  const std::size_t n_new = new_points.rows();
  const std::size_t dim = reference_embedding.cols();
  const std::size_t k = config.n_neighbors;
  const Rng rng(config.seed ^ 0x77aa77ull);

  const auto [a, b] = fit_ab(config.spread, config.min_dist);
  Matrix y(n_new, dim);
  if (n_new == 0) return y;

  // One batch query resolves every new point's reference neighbourhood
  // (the exact backend streams row blocks through the prenormed engine —
  // the same blocked arithmetic this function used to inline).
  KnnGraph knn;
  reference_index.query_batch(new_points, k, ws, knn, opts);

  // Placement fans across the pool: each point owns a split RNG stream, so
  // the result is deterministic and independent of the banding.
  const auto place_band = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      place_new_point(
          std::span<const std::size_t>(knn.neighbors).subspan(r * k, k),
          std::span<const double>(knn.distances).subspan(r * k, k),
          reference_embedding, config, a, b, rng, r, y.row(r));
    }
  };
  parallel::ThreadPool* pool = nullptr;
  if (opts.allow_parallel && n_new * n_ref >= (std::size_t{1} << 18)) {
    parallel::ThreadPool& shared = parallel::shared_pool();
    if (shared.thread_count() >= 2) pool = &shared;
  }
  if (pool == nullptr) {
    place_band(0, n_new);
  } else {
    const std::size_t bands = std::min(n_new, pool->thread_count() * 4);
    pool->parallel_for(bands, [&](std::size_t t) {
      place_band(n_new * t / bands, n_new * (t + 1) / bands);
    });
  }
  return y;
}

Matrix umap_transform(const Matrix& reference_points,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config,
                      linalg::Workspace& ws, const DistanceOptions& opts) {
  // One-shot form: an exact index over the reference set (selection through
  // the searcher is lexicographically identical to the historical
  // partial_sort, so results are unchanged).
  const auto index = make_searcher("exact", config.seed);
  index->build(reference_points, ws, opts);
  return umap_transform(*index, reference_embedding, new_points, config, ws,
                        opts);
}

Matrix umap_transform(const Matrix& reference_points,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config) {
  linalg::Workspace ws;
  return umap_transform(reference_points, reference_embedding, new_points,
                        config, ws);
}

/// The effective searcher config for an embedding run: `seed` flows into
/// the searcher stream.
AnnConfig umap_knn_config(const UmapConfig& config) {
  AnnConfig ann = config.knn;
  ann.seed = config.seed ^ 0xabcdefull;
  return ann;
}

Matrix umap_embed(const Matrix& points, const UmapConfig& config,
                  linalg::Workspace& ws, const DistanceOptions& opts) {
  ARAMS_CHECK(points.rows() > config.n_neighbors,
              "need more points than n_neighbors");
  const auto searcher = make_searcher(umap_knn_config(config));
  searcher->build(points, ws, opts);
  KnnGraph graph;
  searcher->query_graph(config.n_neighbors, ws, graph, opts);
  return umap_embed_graph(points, graph, config);
}

Matrix umap_embed(const Matrix& points, const UmapConfig& config) {
  linalg::Workspace ws;
  return umap_embed(points, config, ws);
}

}  // namespace arams::embed
