#pragma once
// A random kNN graph to seed nn_descent_refine with, the classic
// NN-descent start (Dong et al. 2011): the tests measure how far the
// local-join passes alone recover the exact graph.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::test {

/// For each point i in order, draws uniform indices until k distinct
/// neighbours other than i are collected; a self draw or a repeat is
/// skipped but still consumes the stream. Neighbours stay in draw order,
/// each with its Euclidean distance. Requires 1 <= k < points.rows().
inline embed::KnnGraph random_knn_graph(const linalg::Matrix& points,
                                        std::size_t k, Rng& rng) {
  const std::size_t n = points.rows();
  embed::KnnGraph g;
  g.n = n;
  g.k = k;
  g.neighbors.reserve(n * k);
  g.distances.reserve(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = g.neighbors.size();
    while (g.neighbors.size() - begin < k) {
      const std::size_t j = rng.uniform_index(n);
      const auto row =
          g.neighbors.begin() + static_cast<std::ptrdiff_t>(begin);
      if (j == i || std::find(row, g.neighbors.end(), j) != g.neighbors.end()) {
        continue;
      }
      g.neighbors.push_back(j);
      g.distances.push_back(
          std::sqrt(embed::sq_dist(points.row(i), points.row(j))));
    }
  }
  return g;
}

}  // namespace arams::test
