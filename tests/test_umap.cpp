// UMAP internals (smooth-kNN calibration, fuzzy union, a/b curve fit) and
// end-to-end behaviour: well-separated clusters must stay separated.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "embed/metrics.hpp"
#include "embed/umap.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::embed {
namespace {

using linalg::Matrix;

Matrix two_gaussian_clusters(std::size_t per_cluster, double separation,
                             std::uint64_t seed) {
  Matrix pts(2 * per_cluster, 4);
  Rng rng(seed);
  for (std::size_t i = 0; i < 2 * per_cluster; ++i) {
    const double offset = (i < per_cluster) ? 0.0 : separation;
    for (std::size_t c = 0; c < 4; ++c) {
      pts(i, c) = (c == 0 ? offset : 0.0) + rng.normal();
    }
  }
  return pts;
}

TEST(SmoothKnn, SumConstraintHonored) {
  const Matrix pts = two_gaussian_clusters(30, 8.0, 1);
  const KnnGraph g = exact_knn(pts, 10);
  const SmoothKnn smooth = smooth_knn_distances(g);
  const double target = std::log2(10.0);
  for (std::size_t i = 0; i < g.n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < g.k; ++j) {
      const double d = g.distance(i, j) - smooth.rho[i];
      sum += (d <= 0.0) ? 1.0 : std::exp(-d / smooth.sigma[i]);
    }
    EXPECT_NEAR(sum, target, 0.05 * target);
  }
}

TEST(SmoothKnn, RhoIsNearestNeighborDistance) {
  const Matrix pts = two_gaussian_clusters(20, 5.0, 2);
  const KnnGraph g = exact_knn(pts, 5);
  const SmoothKnn smooth = smooth_knn_distances(g);
  for (std::size_t i = 0; i < g.n; ++i) {
    EXPECT_DOUBLE_EQ(smooth.rho[i], g.distance(i, 0));
  }
}

TEST(FuzzyGraph, WeightsInUnitInterval) {
  const Matrix pts = two_gaussian_clusters(25, 6.0, 3);
  const KnnGraph g = exact_knn(pts, 8);
  const FuzzyGraph fuzzy = fuzzy_simplicial_set(g, smooth_knn_distances(g));
  EXPECT_GT(fuzzy.edges.size(), 0u);
  for (const auto& e : fuzzy.edges) {
    EXPECT_GT(e.weight, 0.0);
    EXPECT_LE(e.weight, 1.0 + 1e-12);
    EXPECT_LT(e.u, e.v);  // canonical orientation, no duplicates
    EXPECT_LT(e.v, fuzzy.n);
  }
}

TEST(FuzzyGraph, NearestNeighborEdgeIsStrong) {
  // Each point's nearest neighbour has d − ρ = 0 → directed weight 1 →
  // symmetric weight 1.
  const Matrix pts = two_gaussian_clusters(15, 10.0, 4);
  const KnnGraph g = exact_knn(pts, 4);
  const FuzzyGraph fuzzy = fuzzy_simplicial_set(g, smooth_knn_distances(g));
  for (std::size_t i = 0; i < g.n; ++i) {
    const std::size_t nn = g.neighbor(i, 0);
    bool found = false;
    for (const auto& e : fuzzy.edges) {
      if ((e.u == std::min(i, nn)) && (e.v == std::max(i, nn))) {
        EXPECT_NEAR(e.weight, 1.0, 1e-9);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

/// The tree-map symmetrisation fuzzy_simplicial_set used before the
/// sorted-vector rewrite, kept as the bitwise reference: directed weights
/// in a map keyed (i, j) (a repeated neighbour overwrites), then one map of
/// canonical pairs.
FuzzyGraph map_fuzzy_simplicial_set(const KnnGraph& graph,
                                    const SmoothKnn& smooth) {
  const std::size_t n = graph.n;
  const std::size_t k = graph.k;
  std::map<std::pair<std::size_t, std::size_t>, double> directed;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t t = graph.neighbor(i, j);
      const double d = graph.distance(i, j) - smooth.rho[i];
      const double w = (d <= 0.0) ? 1.0 : std::exp(-d / smooth.sigma[i]);
      directed[{i, t}] = w;
    }
  }
  FuzzyGraph out;
  out.n = n;
  std::map<std::pair<std::size_t, std::size_t>, double> sym;
  for (const auto& [key, w] : directed) {
    const auto [i, j] = key;
    const auto canon = std::minmax(i, j);
    const auto rev_it = directed.find({j, i});
    const double wr = (rev_it != directed.end()) ? rev_it->second : 0.0;
    sym[{canon.first, canon.second}] = w + wr - w * wr;
  }
  out.edges.reserve(sym.size());
  for (const auto& [key, w] : sym) {
    if (w > 0.0) {
      out.edges.push_back({key.first, key.second, w});
    }
  }
  return out;
}

void expect_same_edges(const FuzzyGraph& got, const FuzzyGraph& want) {
  EXPECT_EQ(got.n, want.n);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    EXPECT_EQ(got.edges[e].u, want.edges[e].u) << "edge " << e;
    EXPECT_EQ(got.edges[e].v, want.edges[e].v) << "edge " << e;
    EXPECT_EQ(got.edges[e].weight, want.edges[e].weight) << "edge " << e;
  }
}

TEST(FuzzyGraph, MatchesTreeMapReferenceBitwise) {
  // Real kNN graphs: most pairs are asymmetric, many mutual.
  const Matrix pts = two_gaussian_clusters(150, 4.0, 5);
  for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                              std::size_t{15}}) {
    const KnnGraph g = exact_knn(pts, k);
    const SmoothKnn smooth = smooth_knn_distances(g);
    const FuzzyGraph want = map_fuzzy_simplicial_set(g, smooth);
    expect_same_edges(fuzzy_simplicial_set(g, smooth), want);
    std::size_t mutual = 0;
    for (std::size_t i = 0; i < g.n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t t = g.neighbor(i, j);
        for (std::size_t l = 0; l < k; ++l) {
          if (g.neighbor(t, l) == i) ++mutual;
        }
      }
    }
    EXPECT_GT(mutual, 0u) << "k " << k;
    EXPECT_LT(mutual, g.n * k) << "k " << k;
  }
}

TEST(FuzzyGraph, HandBuiltGraphMatchesTreeMapReference) {
  // Five points, k = 3, targets listed out of order. Row 0 names point 2
  // twice with different distances (the map keeps the later weight). 0↔1
  // is mutual, 0→2 and 3→2 are asymmetric, 2→3 and 1→4 underflow to
  // weight 0, and point 4 lists itself.
  KnnGraph g;
  g.n = 5;
  g.k = 3;
  g.neighbors = {2, 1, 2,  //
                 0, 3, 4,  //
                 4, 1, 3,  //
                 4, 0, 2,  //
                 4, 3, 0};
  g.distances = {0.7, 0.2, 0.3,    //
                 0.2, 0.9, 500.0,  //
                 0.5, 0.6, 900.0,  //
                 0.4, 1.1, 1.2,    //
                 0.0, 0.8, 1.0};
  SmoothKnn smooth;
  smooth.rho = {0.2, 0.2, 0.5, 0.4, 0.0};
  smooth.sigma = {0.5, 0.3, 0.25, 0.7, 0.9};
  const FuzzyGraph got = fuzzy_simplicial_set(g, smooth);
  expect_same_edges(got, map_fuzzy_simplicial_set(g, smooth));

  const auto find = [&](std::size_t u, std::size_t v) {
    for (const auto& e : got.edges) {
      if (e.u == u && e.v == v) return &e;
    }
    return static_cast<const FuzzyGraph::Edge*>(nullptr);
  };
  ASSERT_NE(find(0, 2), nullptr);
  EXPECT_EQ(find(0, 2)->weight, std::exp(-(0.3 - 0.2) / 0.5));  // last wins
  EXPECT_EQ(find(1, 4), nullptr);  // only direction has weight 0
  EXPECT_NE(find(2, 3), nullptr);  // 3→2 keeps the pair alive
  EXPECT_NE(find(4, 4), nullptr);
}

TEST(FuzzyGraph, RejectsOutOfRangeNeighbour) {
  KnnGraph g;
  g.n = 3;
  g.k = 1;
  g.neighbors = {1, 2, 3};
  g.distances = {0.5, 0.5, 0.5};
  SmoothKnn smooth;
  smooth.rho = {0.5, 0.5, 0.5};
  smooth.sigma = {1.0, 1.0, 1.0};
  EXPECT_THROW(fuzzy_simplicial_set(g, smooth), CheckError);
}

TEST(FitAb, CachedPairIsBitwiseStable) {
  // The per-thread cache returns the bits a fresh computation gives, and a
  // changed min_dist recomputes instead of returning the cached pair.
  const auto fresh = [](double spread, double min_dist) {
    std::pair<double, double> ab;
    std::thread([&] { ab = fit_ab(spread, min_dist); }).join();
    return ab;
  };
  const auto first = fit_ab(1.0, 0.1);
  const auto again = fit_ab(1.0, 0.1);
  EXPECT_EQ(again.first, first.first);
  EXPECT_EQ(again.second, first.second);
  const auto uncached = fresh(1.0, 0.1);
  EXPECT_EQ(uncached.first, first.first);
  EXPECT_EQ(uncached.second, first.second);

  const auto other = fit_ab(1.0, 0.5);
  EXPECT_NE(other.first, first.first);
  const auto other_fresh = fresh(1.0, 0.5);
  EXPECT_EQ(other.first, other_fresh.first);
  EXPECT_EQ(other.second, other_fresh.second);

  const auto back = fit_ab(1.0, 0.1);
  EXPECT_EQ(back.first, first.first);
  EXPECT_EQ(back.second, first.second);
  EXPECT_THROW(fit_ab(1.0, 5.0), CheckError);  // checks run on every call
}

TEST(FitAb, MatchesReferenceValuesForDefaultMinDist) {
  // umap-learn fits a≈1.577, b≈0.895 for spread=1, min_dist=0.1.
  const auto [a, b] = fit_ab(1.0, 0.1);
  EXPECT_NEAR(a, 1.58, 0.25);
  EXPECT_NEAR(b, 0.90, 0.12);
}

TEST(FitAb, LargerMinDistFlattensCurve) {
  const auto [a1, b1] = fit_ab(1.0, 0.0);
  const auto [a2, b2] = fit_ab(1.0, 0.8);
  // Larger min_dist → plateau → smaller a.
  EXPECT_LT(a2, a1);
  (void)b1;
  (void)b2;
}

TEST(FitAb, InvalidArgumentsThrow) {
  EXPECT_THROW(fit_ab(0.0, 0.1), CheckError);
  EXPECT_THROW(fit_ab(1.0, 5.0), CheckError);
}

UmapConfig fast_config() {
  UmapConfig config;
  config.n_neighbors = 10;
  config.n_epochs = 150;
  config.seed = 99;
  return config;
}

TEST(Umap, OutputShape) {
  const Matrix pts = two_gaussian_clusters(40, 8.0, 5);
  const Matrix y = umap_embed(pts, fast_config());
  EXPECT_EQ(y.rows(), pts.rows());
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Umap, DeterministicGivenSeed) {
  const Matrix pts = two_gaussian_clusters(30, 8.0, 6);
  const Matrix y1 = umap_embed(pts, fast_config());
  const Matrix y2 = umap_embed(pts, fast_config());
  EXPECT_EQ(Matrix::max_abs_diff(y1, y2), 0.0);
}

TEST(Umap, SeparatedClustersStaySeparated) {
  constexpr std::size_t kPer = 50;
  const Matrix pts = two_gaussian_clusters(kPer, 20.0, 7);
  const Matrix y = umap_embed(pts, fast_config());

  // Centroid distance must exceed the mean within-cluster spread.
  double c0x = 0, c0y = 0, c1x = 0, c1y = 0;
  for (std::size_t i = 0; i < kPer; ++i) {
    c0x += y(i, 0);
    c0y += y(i, 1);
    c1x += y(kPer + i, 0);
    c1y += y(kPer + i, 1);
  }
  c0x /= kPer;
  c0y /= kPer;
  c1x /= kPer;
  c1y /= kPer;
  const double between = std::hypot(c1x - c0x, c1y - c0y);
  double within = 0.0;
  for (std::size_t i = 0; i < kPer; ++i) {
    within += std::hypot(y(i, 0) - c0x, y(i, 1) - c0y);
    within += std::hypot(y(kPer + i, 0) - c1x, y(kPer + i, 1) - c1y);
  }
  within /= (2.0 * kPer);
  EXPECT_GT(between, 2.0 * within);
}

TEST(Umap, PreservesNeighborhoodsBetterThanRandom) {
  const Matrix pts = two_gaussian_clusters(40, 10.0, 8);
  const Matrix y = umap_embed(pts, fast_config());
  const double t = trustworthiness(pts, y, 8);
  EXPECT_GT(t, 0.8);
}

TEST(Umap, RandomInitAlsoWorks) {
  // One input column cannot fill a 2-D PCA projection, so the layout
  // starts from the uniform random fallback and SGD alone must recover
  // the two clusters.
  const Matrix pts4 = two_gaussian_clusters(30, 15.0, 9);
  Matrix pts(pts4.rows(), 1);
  for (std::size_t i = 0; i < pts.rows(); ++i) pts(i, 0) = pts4(i, 0);
  const Matrix y = umap_embed(pts, fast_config());
  EXPECT_EQ(y.rows(), 60u);
  EXPECT_EQ(y.cols(), 2u);
  const double t = trustworthiness(pts, y, 6);
  EXPECT_GT(t, 0.7);
}

TEST(UmapTransform, PlacesNewPointsNearTheirCluster) {
  constexpr std::size_t kPer = 40;
  const Matrix reference = two_gaussian_clusters(kPer, 20.0, 31);
  UmapConfig config = fast_config();
  const Matrix ref_embedding = umap_embed(reference, config);

  // New points drawn from each cluster must land near that cluster's
  // embedded centroid.
  Matrix fresh(8, 4);
  Rng rng(32);
  for (std::size_t i = 0; i < 8; ++i) {
    const double offset = (i < 4) ? 0.0 : 20.0;
    for (std::size_t c = 0; c < 4; ++c) {
      fresh(i, c) = (c == 0 ? offset : 0.0) + rng.normal();
    }
  }
  const Matrix placed =
      umap_transform(reference, ref_embedding, fresh, config);
  ASSERT_EQ(placed.rows(), 8u);
  ASSERT_EQ(placed.cols(), 2u);

  const auto centroid = [&](std::size_t start) {
    double cx = 0, cy = 0;
    for (std::size_t i = start; i < start + kPer; ++i) {
      cx += ref_embedding(i, 0);
      cy += ref_embedding(i, 1);
    }
    return std::pair{cx / kPer, cy / kPer};
  };
  const auto [c0x, c0y] = centroid(0);
  const auto [c1x, c1y] = centroid(kPer);
  for (std::size_t i = 0; i < 8; ++i) {
    const double d0 = std::hypot(placed(i, 0) - c0x, placed(i, 1) - c0y);
    const double d1 = std::hypot(placed(i, 0) - c1x, placed(i, 1) - c1y);
    if (i < 4) {
      EXPECT_LT(d0, d1) << "point " << i;
    } else {
      EXPECT_LT(d1, d0) << "point " << i;
    }
  }
}

TEST(UmapTransform, ReferenceUnchangedAndDeterministic) {
  const Matrix reference = two_gaussian_clusters(25, 10.0, 33);
  UmapConfig config = fast_config();
  const Matrix ref_embedding = umap_embed(reference, config);
  const Matrix fresh = two_gaussian_clusters(3, 10.0, 34);
  const Matrix p1 = umap_transform(reference, ref_embedding, fresh, config);
  const Matrix p2 = umap_transform(reference, ref_embedding, fresh, config);
  EXPECT_EQ(Matrix::max_abs_diff(p1, p2), 0.0);
}

TEST(UmapTransform, ValidatesArguments) {
  const Matrix reference = two_gaussian_clusters(20, 5.0, 35);
  UmapConfig config = fast_config();
  const Matrix ref_embedding = umap_embed(reference, config);
  EXPECT_THROW(
      umap_transform(reference, ref_embedding, Matrix(2, 7), config),
      CheckError);
  EXPECT_THROW(
      umap_transform(reference, Matrix(3, 2), Matrix(2, 4), config),
      CheckError);
}

TEST(Umap, TooFewPointsThrows) {
  UmapConfig config = fast_config();
  config.n_neighbors = 10;
  EXPECT_THROW(umap_embed(Matrix(5, 3), config), CheckError);
}

TEST(Umap, RejectsNonFinitePoints) {
  // A NaN or ±inf coordinate fails the kNN index build under both engine
  // modes instead of landing at distance 0 from every point.
  const Matrix pts = two_gaussian_clusters(20, 5.0, 11);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix broken = pts;
    broken(3, 2) = bad;
    for (const bool use_gemm : {true, false}) {
      linalg::Workspace ws;
      EXPECT_THROW(umap_embed(broken, fast_config(), ws,
                              DistanceOptions{.use_gemm = use_gemm}),
                   CheckError)
          << "value " << bad << " use_gemm " << use_gemm;
    }
  }
}

TEST(Umap, GraphMismatchThrows) {
  const Matrix pts = two_gaussian_clusters(20, 5.0, 10);
  const KnnGraph g = exact_knn(pts, 5);
  const Matrix other(10, 4);
  EXPECT_THROW(umap_embed_graph(other, g, fast_config()), CheckError);
}

}  // namespace
}  // namespace arams::embed
