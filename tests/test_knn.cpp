// kNN graphs: exact brute force, and the recall NN-descent refinement
// reaches from a random seed graph.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "embed/knn.hpp"
#include "parallel/thread_pool.hpp"
#include "random_knn_graph.hpp"
#include "rerun_self.hpp"
#include "rng/rng.hpp"
#include "rpforest_serial_reference.hpp"
#include "util/check.hpp"

namespace arams::embed {
namespace {

using linalg::Matrix;

Matrix random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  Matrix m(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) rng.fill_normal(m.row(i));
  return m;
}

TEST(ExactKnn, ValidatesArguments) {
  const Matrix pts = random_points(5, 2, 1);
  EXPECT_THROW(exact_knn(pts, 0), CheckError);
  EXPECT_THROW(exact_knn(pts, 5), CheckError);
  EXPECT_THROW(exact_knn(Matrix(1, 2), 1), CheckError);
}

TEST(ExactKnn, KnownLineGeometry) {
  // Points on a line at 0, 1, 2, 10: neighbours are unambiguous.
  Matrix pts(4, 1);
  pts(0, 0) = 0.0;
  pts(1, 0) = 1.0;
  pts(2, 0) = 2.0;
  pts(3, 0) = 10.0;
  const KnnGraph g = exact_knn(pts, 2);
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(3, 0), 2u);
  EXPECT_DOUBLE_EQ(g.distance(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.distance(3, 0), 8.0);
}

TEST(ExactKnn, ExcludesSelf) {
  const Matrix pts = random_points(20, 3, 2);
  const KnnGraph g = exact_knn(pts, 5);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NE(g.neighbor(i, j), i);
    }
  }
}

TEST(ExactKnn, DistancesSortedAscending) {
  const Matrix pts = random_points(30, 4, 3);
  const KnnGraph g = exact_knn(pts, 6);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 1; j < 6; ++j) {
      EXPECT_GE(g.distance(i, j), g.distance(i, j - 1));
    }
  }
}

TEST(NnDescent, HighRecallOnRandomPoints) {
  const Matrix pts = random_points(300, 5, 4);
  const KnnGraph exact = exact_knn(pts, 10);
  Rng rng(5);
  KnnGraph approx = test::random_knn_graph(pts, 10, rng);
  nn_descent_refine(pts, rng, approx, 8);
  EXPECT_GT(knn_recall(approx, exact), 0.85);
}

TEST(NnDescent, PerfectRecallOnWellSeparatedClusters) {
  // Two tight, far-apart clusters: any reasonable pass count finds the
  // intra-cluster neighbours.
  Matrix pts(40, 2);
  Rng rng(6);
  for (std::size_t i = 0; i < 40; ++i) {
    const double cx = (i < 20) ? 0.0 : 100.0;
    pts(i, 0) = cx + 0.1 * rng.normal();
    pts(i, 1) = 0.1 * rng.normal();
  }
  const KnnGraph exact = exact_knn(pts, 5);
  Rng rng2(7);
  KnnGraph approx = test::random_knn_graph(pts, 5, rng2);
  nn_descent_refine(pts, rng2, approx, 10);
  EXPECT_GT(knn_recall(approx, exact), 0.95);
}

TEST(NnDescent, ScalarPathRecallRegression) {
  // Regression pin for the O(k) NeighborList insertion rewrite and the
  // bounded insertion-scan selection: on the scalar arithmetic path
  // (use_gemm = false) both must reproduce the historical algorithm's
  // choices exactly, so recall against the exact graph is *equal* to the
  // values the pre-rewrite implementation produced, not merely close.
  const struct {
    std::size_t n, d;
    std::uint64_t fill_seed, descent_seed;
    double expected_recall;
  } cases[] = {
      {400, 8, 21, 22, 0.999},
      {300, 5, 4, 5, 0.9996666666666667},
  };
  for (const auto& c : cases) {
    linalg::Matrix pts(c.n, c.d);
    Rng fill(c.fill_seed);
    for (std::size_t i = 0; i < c.n; ++i) {
      for (auto& v : pts.row(i)) v = fill.uniform(-1.0, 1.0);
    }
    linalg::Workspace ws;
    const DistanceOptions scalar{.use_gemm = false};
    KnnGraph exact;
    exact_knn(pts, 10, ws, exact, scalar);
    Rng rng(c.descent_seed);
    KnnGraph approx = test::random_knn_graph(pts, 10, rng);
    nn_descent_refine(pts, rng, approx, 8, 1.0, scalar);
    EXPECT_DOUBLE_EQ(knn_recall(approx, exact), c.expected_recall)
        << "n=" << c.n << " d=" << c.d;
  }
}

TEST(KnnRecall, IdenticalGraphsGiveOne) {
  const Matrix pts = random_points(25, 2, 12);
  const KnnGraph g = exact_knn(pts, 3);
  EXPECT_DOUBLE_EQ(knn_recall(g, g), 1.0);
}

TEST(KnnRecall, IncomparableGraphsThrow) {
  const Matrix pts = random_points(25, 2, 13);
  const KnnGraph a = exact_knn(pts, 3);
  const KnnGraph b = exact_knn(pts, 4);
  EXPECT_THROW(knn_recall(a, b), CheckError);
}

TEST(NnDescent, JoinMatchesSerialOracleAtAnyPoolSize) {
  // 2048 points: the pooled join scores in bands and replays the calls
  // that can change a list, and must leave every list as the serial join
  // does. On a grid many distances tie, and a squared seed distance can sit
  // an ulp above the join's own value for the same pair, so the order each
  // list receives its calls in, and re-offered start members, show in the
  // graph. Checked against the oracle here, from a pool worker, and in
  // child processes at pool sizes 1 and 4.
  const std::size_t threads = parallel::shared_pool().thread_count();
  struct Case {
    std::size_t d;
    double grid;
    double sample_rate;
    bool use_gemm;
  };
  std::uint64_t digest = test::fnv1a(nullptr, 0);
  for (const Case& c : {Case{6, 0.0, 1.0, true}, Case{2, 0.25, 1.0, true},
                        Case{2, 0.25, 0.6, true}, Case{3, 0.5, 1.0, false}}) {
    Matrix pts(2048, c.d);
    Rng fill(40 + c.d);
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      for (auto& v : pts.row(i)) {
        v = 3.0 * fill.normal();
        if (c.grid > 0.0) v = c.grid * std::round(v / c.grid);
      }
    }
    const DistanceOptions opts{.use_gemm = c.use_gemm};
    // The seed: a random graph after two serial passes, its lists close to
    // final, with many entries at tied distances.
    Rng seed_rng(41);
    KnnGraph seed = test::random_knn_graph(pts, 10, seed_rng);
    test::serial_nn_descent(pts, seed_rng, seed, 2, 1.0, opts);
    const auto refine = [&](const auto& run) {
      KnnGraph g = seed;
      Rng rng(42);
      run(rng, g);
      return g;
    };
    const KnnGraph want = refine([&](Rng& rng, KnnGraph& g) {
      test::serial_nn_descent(pts, rng, g, 4, c.sample_rate, opts);
    });
    const auto pooled = [&](Rng& rng, KnnGraph& g) {
      nn_descent_refine(pts, rng, g, 4, c.sample_rate, opts);
    };
    KnnGraph got = refine(pooled);
    KnnGraph on_worker;
    parallel::shared_pool().parallel_for(
        1, [&](std::size_t) { on_worker = refine(pooled); });
    for (const KnnGraph* g : {&got, &on_worker}) {
      EXPECT_EQ(g->neighbors, want.neighbors) << "d = " << c.d;
      EXPECT_EQ(test::fnv1a(g->distances.data(),
                            g->distances.size() * sizeof(double)),
                test::fnv1a(want.distances.data(),
                            want.distances.size() * sizeof(double)))
          << "d = " << c.d;
    }
    digest = test::fnv1a(got.neighbors.data(),
                         got.neighbors.size() * sizeof(std::size_t), digest);
  }
  test::print_pool_digest(threads, digest);
  if (std::getenv("ARAMS_NN_DESCENT_CHILD") != nullptr) return;
  test::expect_digest_at_pool_sizes(
      "ARAMS_NN_DESCENT_CHILD",
      "NnDescent.JoinMatchesSerialOracleAtAnyPoolSize", digest);
}

}  // namespace
}  // namespace arams::embed
