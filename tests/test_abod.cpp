// FastABOD anomaly scores: cluster interiors score high, isolated points
// score low.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "cluster/abod.hpp"
#include "parallel/thread_pool.hpp"
#include "rerun_self.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::cluster {
namespace {

using linalg::Matrix;

Matrix cluster_with_outlier(std::size_t n, std::uint64_t seed) {
  Matrix pts(n + 1, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    pts(i, 0) = rng.normal();
    pts(i, 1) = rng.normal();
  }
  pts(n, 0) = 50.0;  // the outlier
  pts(n, 1) = 50.0;
  return pts;
}

TEST(Abod, ValidatesArguments) {
  const Matrix pts = cluster_with_outlier(10, 1);
  AbodConfig config;
  config.k = 1;
  EXPECT_THROW(fast_abod(pts, config), CheckError);
  config.k = 20;
  EXPECT_THROW(fast_abod(pts, config), CheckError);
}

TEST(Abod, OutlierGetsLowestScore) {
  const Matrix pts = cluster_with_outlier(40, 2);
  const auto scores = fast_abod(pts, AbodConfig{8, {}});
  ASSERT_EQ(scores.size(), 41u);
  const auto min_at = static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  EXPECT_EQ(min_at, 40u);
}

TEST(Abod, ScoresAreNonNegative) {
  const Matrix pts = cluster_with_outlier(30, 3);
  const auto scores = fast_abod(pts, AbodConfig{6, {}});
  for (const double s : scores) {
    EXPECT_GE(s, 0.0);
  }
}

TEST(Abod, TwoOutliersBothDetected) {
  Matrix pts(42, 2);
  Rng rng(4);
  for (std::size_t i = 0; i < 40; ++i) {
    pts(i, 0) = rng.normal();
    pts(i, 1) = rng.normal();
  }
  pts(40, 0) = 60.0;
  pts(40, 1) = 0.0;
  pts(41, 0) = -55.0;
  pts(41, 1) = -70.0;
  const auto scores = fast_abod(pts, AbodConfig{8, {}});
  const auto top = top_outliers(scores, 2);
  const std::set<std::size_t> found(top.begin(), top.end());
  EXPECT_TRUE(found.contains(40u));
  EXPECT_TRUE(found.contains(41u));
}

TEST(Abod, DuplicatePointsHandled) {
  Matrix pts(20, 2);
  Rng rng(5);
  for (std::size_t i = 0; i < 18; ++i) {
    pts(i, 0) = rng.normal();
    pts(i, 1) = rng.normal();
  }
  // Two exact duplicates — zero-distance neighbours must not divide by 0.
  pts(18, 0) = pts(0, 0);
  pts(18, 1) = pts(0, 1);
  pts(19, 0) = pts(1, 0);
  pts(19, 1) = pts(1, 1);
  const auto scores = fast_abod(pts, AbodConfig{5, {}});
  for (const double s : scores) {
    EXPECT_FALSE(std::isnan(s));
  }
}

TEST(ExactAbod, AgreesWithFastAbodOnOutlierRanking) {
  const Matrix pts = cluster_with_outlier(25, 6);
  const auto exact = exact_abod(pts);
  const auto fast = fast_abod(pts, AbodConfig{12, {}});
  // Both must rank the planted outlier last (lowest score).
  const auto exact_min = static_cast<std::size_t>(
      std::min_element(exact.begin(), exact.end()) - exact.begin());
  const auto fast_min = static_cast<std::size_t>(
      std::min_element(fast.begin(), fast.end()) - fast.begin());
  EXPECT_EQ(exact_min, 25u);
  EXPECT_EQ(fast_min, 25u);
}

TEST(ExactAbod, NeedsThreePoints) {
  EXPECT_THROW(exact_abod(Matrix(2, 2)), CheckError);
}

TEST(ExactAbod, InteriorScoresExceedOutlierScores) {
  const Matrix pts = cluster_with_outlier(30, 7);
  const auto scores = exact_abod(pts);
  double interior_min = 1e300;
  for (std::size_t i = 0; i < 30; ++i) {
    interior_min = std::min(interior_min, scores[i]);
  }
  EXPECT_GT(interior_min, scores[30]);
}

TEST(TopOutliers, OrderedAscendingByScore) {
  const std::vector<double> scores{5.0, 0.1, 3.0, 0.5, 9.0};
  const auto top = top_outliers(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(TopOutliers, CountClampedToSize) {
  const std::vector<double> scores{1.0, 2.0};
  EXPECT_EQ(top_outliers(scores, 10).size(), 2u);
}

TEST(Abod, SameBitsAtAnyPoolSize) {
  // 2048 2-D points at k = 10, above the size at which the forest graph
  // and the per-point loop go to the pool. The scores equal the
  // allow_parallel = false run and the run from a pool worker bit for bit;
  // a child process repeats this at pool sizes 1 and 4 and must print the
  // same digest.
  const std::size_t threads = parallel::shared_pool().thread_count();
  Matrix pts(2048, 2);
  Rng rng(71);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const double cx = 6.0 * static_cast<double>(i % 5);
    pts(i, 0) = cx + rng.normal();
    pts(i, 1) = rng.normal();
  }
  AbodConfig config;
  config.knn.backend = "rpforest";
  linalg::Workspace ws;
  const std::vector<double> scores = fast_abod(pts, config, ws);
  const std::vector<double> serial =
      fast_abod(pts, config, ws, {.allow_parallel = false});
  std::vector<double> on_worker;
  parallel::shared_pool().parallel_for(
      1, [&](std::size_t) { on_worker = fast_abod(pts, config); });
  const auto digest = [](const std::vector<double>& v) {
    return test::fnv1a(v.data(), v.size() * sizeof(double));
  };
  EXPECT_EQ(digest(serial), digest(scores));
  EXPECT_EQ(digest(on_worker), digest(scores));
  test::print_pool_digest(threads, digest(scores));
  if (std::getenv("ARAMS_ABOD_CHILD") != nullptr) return;
  test::expect_digest_at_pool_sizes("ARAMS_ABOD_CHILD",
                                    "Abod.SameBitsAtAnyPoolSize",
                                    digest(scores));
}

}  // namespace
}  // namespace arams::cluster
