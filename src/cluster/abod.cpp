#include "cluster/abod.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::cluster {

using linalg::Matrix;

std::vector<double> fast_abod(const Matrix& points, const AbodConfig& config,
                              linalg::Workspace& ws,
                              const embed::DistanceOptions& opts) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  ARAMS_CHECK(config.k >= 2, "ABOD needs k >= 2");
  ARAMS_CHECK(n > config.k, "need more points than k");
  const std::size_t k = config.k;

  const auto searcher = embed::make_searcher(config.knn);
  searcher->build(points, ws, opts);
  embed::KnnGraph graph;
  searcher->query_graph(k, ws, graph, opts);

  // Each score depends on its point's neighbourhood alone, so the points
  // run in bands, each with its own scratch: the k neighbour-difference
  // vectors and their Gram matrix, reused across the band.
  std::vector<double> scores(n, 0.0);
  const auto score_band = [&](std::size_t p0, std::size_t p1) {
    Matrix diffs(k, dim);
    Matrix gram(k, k);
    std::vector<double> norms(k);
    for (std::size_t p = p0; p < p1; ++p) {
      const auto row_p = points.row(p);
      for (std::size_t a = 0; a < k; ++a) {
        const auto row_a = points.row(graph.neighbor(p, a));
        const auto da = diffs.row(a);
        for (std::size_t c = 0; c < dim; ++c) {
          da[c] = row_a[c] - row_p[c];
        }
      }
      // One tiled Gram product hands every pair its inner product and both
      // norms; the O(k²) angle-statistics loop below no longer touches d.
      linalg::gram_rows(diffs, gram);
      for (std::size_t a = 0; a < k; ++a) {
        norms[a] = std::sqrt(gram(a, a));
      }
      double wsum = 0.0, mean = 0.0, m2 = 0.0;
      for (std::size_t a = 0; a < k; ++a) {
        if (norms[a] == 0.0) continue;
        for (std::size_t b = a + 1; b < k; ++b) {
          if (norms[b] == 0.0) continue;
          const double inner = gram(a, b);
          const double value =
              inner / (norms[a] * norms[a] * norms[b] * norms[b]);
          const double w = 1.0 / (norms[a] * norms[b]);
          // West's incremental weighted variance.
          wsum += w;
          const double delta = value - mean;
          mean += (w / wsum) * delta;
          m2 += w * delta * (value - mean);
        }
      }
      scores[p] = (wsum > 0.0) ? m2 / wsum : 0.0;
    }
  };
  parallel::for_bands(embed::graph_loop_pool(opts.allow_parallel, n * k), n,
                      score_band);
  return scores;
}

std::vector<double> fast_abod(const Matrix& points, const AbodConfig& config) {
  linalg::Workspace ws;
  return fast_abod(points, config, ws);
}

std::vector<double> exact_abod(const Matrix& points) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  ARAMS_CHECK(n >= 3, "exact ABOD needs at least three points");

  std::vector<double> scores(n, 0.0);
  std::vector<double> da(dim), db(dim);
  for (std::size_t p = 0; p < n; ++p) {
    const auto row_p = points.row(p);
    double wsum = 0.0, mean = 0.0, m2 = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      if (a == p) continue;
      const auto row_a = points.row(a);
      double na = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        da[c] = row_a[c] - row_p[c];
        na += da[c] * da[c];
      }
      if (na == 0.0) continue;
      na = std::sqrt(na);
      for (std::size_t b = a + 1; b < n; ++b) {
        if (b == p) continue;
        const auto row_b = points.row(b);
        double nb = 0.0, inner = 0.0;
        for (std::size_t c = 0; c < dim; ++c) {
          db[c] = row_b[c] - row_p[c];
          nb += db[c] * db[c];
          inner += da[c] * db[c];
        }
        if (nb == 0.0) continue;
        nb = std::sqrt(nb);
        const double value = inner / (na * na * nb * nb);
        const double w = 1.0 / (na * nb);
        wsum += w;
        const double delta = value - mean;
        mean += (w / wsum) * delta;
        m2 += w * delta * (value - mean);
      }
    }
    scores[p] = (wsum > 0.0) ? m2 / wsum : 0.0;
  }
  return scores;
}

std::vector<std::size_t> top_outliers(const std::vector<double>& scores,
                                      std::size_t count) {
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  count = std::min(count, scores.size());
  std::partial_sort(idx.begin(),
                    idx.begin() + static_cast<std::ptrdiff_t>(count),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      return scores[a] < scores[b];
                    });
  idx.resize(count);
  return idx;
}

}  // namespace arams::cluster
