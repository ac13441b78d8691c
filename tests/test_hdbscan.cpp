// HDBSCAN*: cluster recovery on blobs, variable-density robustness (the
// case a single OPTICS ε-cut cannot solve), noise handling, membership
// probabilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "cluster/hdbscan.hpp"
#include "cluster/metrics.hpp"
#include "cluster/optics.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::cluster {
namespace {

using linalg::Matrix;

Matrix blobs(const std::vector<std::pair<double, double>>& centers,
             const std::vector<double>& spreads,
             const std::vector<std::size_t>& sizes, std::uint64_t seed,
             std::size_t noise_points = 0) {
  std::size_t total = noise_points;
  for (const auto s : sizes) total += s;
  Matrix pts(total, 2);
  Rng rng(seed);
  std::size_t row = 0;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    for (std::size_t i = 0; i < sizes[c]; ++i, ++row) {
      pts(row, 0) = centers[c].first + spreads[c] * rng.normal();
      pts(row, 1) = centers[c].second + spreads[c] * rng.normal();
    }
  }
  for (std::size_t i = 0; i < noise_points; ++i, ++row) {
    pts(row, 0) = rng.uniform(-60.0, 60.0);
    pts(row, 1) = rng.uniform(60.0, 120.0);
  }
  return pts;
}

TEST(Hdbscan, ValidatesArguments) {
  const Matrix pts = blobs({{0, 0}}, {1.0}, {10}, 1);
  HdbscanConfig config;
  config.min_samples = 10;
  EXPECT_THROW(hdbscan(pts, config), CheckError);
  config.min_samples = 3;
  config.min_cluster_size = 1;
  EXPECT_THROW(hdbscan(pts, config), CheckError);
  EXPECT_THROW(hdbscan(Matrix(1, 2), HdbscanConfig{}), CheckError);
}

TEST(Hdbscan, RecoversThreeEqualBlobs) {
  const Matrix pts =
      blobs({{0, 0}, {20, 0}, {0, 20}}, {0.5, 0.5, 0.5}, {30, 30, 30}, 2);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{5, 10});
  EXPECT_EQ(r.num_clusters, 3u);
  std::vector<int> truth(90);
  for (std::size_t i = 0; i < 90; ++i) truth[i] = static_cast<int>(i / 30);
  EXPECT_GT(adjusted_rand_index(r.labels, truth), 0.95);
}

TEST(Hdbscan, VariableDensityClustersRecovered) {
  // One tight cluster and one diffuse cluster: any single ε-cut either
  // fragments the diffuse one or merges both; HDBSCAN handles it.
  const Matrix pts =
      blobs({{0, 0}, {40, 0}}, {0.3, 4.0}, {40, 40}, 3);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{5, 10});
  EXPECT_EQ(r.num_clusters, 2u);
  std::vector<int> truth(80);
  for (std::size_t i = 0; i < 80; ++i) truth[i] = static_cast<int>(i / 40);
  EXPECT_GT(adjusted_rand_index(r.labels, truth), 0.9);

  // The contrast: OPTICS with a single quantile cut cannot reach this ARI
  // at the same density contrast without fragmenting the diffuse blob.
  const OpticsResult o = optics(pts, OpticsConfig{5});
  const auto eps_labels = extract_dbscan(o, 0.5);  // tuned for tight blob
  int diffuse_clustered = 0;
  for (std::size_t i = 40; i < 80; ++i) {
    if (eps_labels[i] >= 0) ++diffuse_clustered;
  }
  EXPECT_LT(diffuse_clustered, 40);  // diffuse blob partially lost
}

TEST(Hdbscan, FarNoiseIsLabeledNoise) {
  const Matrix pts =
      blobs({{0, 0}, {30, 0}}, {0.5, 0.5}, {30, 30}, 4, /*noise=*/6);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{5, 10});
  int noise = 0;
  for (std::size_t i = 60; i < 66; ++i) {
    if (r.labels[i] == -1) ++noise;
  }
  EXPECT_GE(noise, 5);
  EXPECT_EQ(r.num_clusters, 2u);
}

TEST(Hdbscan, AllowSingleClusterKeepsBlobWhole) {
  const Matrix pts = blobs({{0, 0}}, {1.0}, {50}, 5);
  HdbscanConfig config{5, 10};
  config.allow_single_cluster = true;
  const HdbscanResult r = hdbscan(pts, config);
  // With the root allowed to win, a homogeneous blob stays one cluster.
  EXPECT_LE(r.num_clusters, 1u);
}

TEST(Hdbscan, DefaultForbidsTheRootCluster) {
  // Matching the reference implementation: without allow_single_cluster a
  // homogeneous blob is split (or mostly noise) rather than reported as
  // one all-encompassing cluster.
  const Matrix pts = blobs({{0, 0}}, {1.0}, {50}, 5);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{5, 10});
  EXPECT_NE(r.num_clusters, 1u);
}

TEST(Hdbscan, ProbabilitiesInUnitInterval) {
  const Matrix pts =
      blobs({{0, 0}, {25, 0}}, {0.6, 0.6}, {25, 25}, 6, /*noise=*/4);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{4, 8});
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    EXPECT_GE(r.probabilities[i], 0.0);
    EXPECT_LE(r.probabilities[i], 1.0 + 1e-12);
    if (r.labels[i] == -1) {
      EXPECT_EQ(r.probabilities[i], 0.0);
    }
  }
}

TEST(Hdbscan, CoreMembersMoreConfidentThanEdgeMembers) {
  // Points near a blob center get higher membership than stragglers.
  Rng rng(7);
  Matrix pts(62, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    pts(i, 0) = 0.2 * rng.normal();
    pts(i, 1) = 0.2 * rng.normal();
  }
  for (std::size_t i = 30; i < 60; ++i) {
    pts(i, 0) = 30.0 + 0.2 * rng.normal();
    pts(i, 1) = 0.2 * rng.normal();
  }
  // Two stragglers attached to cluster 0's fringe.
  pts(60, 0) = 1.4;
  pts(60, 1) = 0.0;
  pts(61, 0) = 0.0;
  pts(61, 1) = 1.4;
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{4, 8});
  ASSERT_EQ(r.num_clusters, 2u);
  if (r.labels[60] >= 0) {
    double core_mean = 0.0;
    for (std::size_t i = 0; i < 30; ++i) core_mean += r.probabilities[i];
    core_mean /= 30.0;
    EXPECT_GT(core_mean, r.probabilities[60]);
  }
}

TEST(Hdbscan, LabelsCoverExactlySelectedClusters) {
  const Matrix pts =
      blobs({{0, 0}, {15, 0}, {0, 15}, {15, 15}}, {0.4, 0.4, 0.4, 0.4},
            {20, 20, 20, 20}, 8);
  const HdbscanResult r = hdbscan(pts, HdbscanConfig{4, 8});
  std::map<int, int> counts;
  for (const int l : r.labels) ++counts[l];
  EXPECT_EQ(r.num_clusters, 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_GE(counts[k], 15);
  }
}

/// HDBSCAN's core-distance loop from before it called
/// cluster::core_distances, kept verbatim as the bitwise reference: a full
/// row of square-rooted per-pair scalar distances per point, self at +inf,
/// then nth_element.
std::vector<double> reference_core_distances(const Matrix& points,
                                             std::size_t min_samples) {
  const auto euclidean = [&](std::size_t a, std::size_t b) {
    double s = 0.0;
    const auto ra = points.row(a);
    const auto rb = points.row(b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      const double d = ra[i] - rb[i];
      s += d * d;
    }
    return std::sqrt(s);
  };
  const std::size_t n = points.rows();
  std::vector<double> core(n);
  std::vector<double> dists(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dists[j] = (i == j) ? std::numeric_limits<double>::infinity()
                          : euclidean(i, j);
    }
    std::nth_element(
        dists.begin(),
        dists.begin() + static_cast<std::ptrdiff_t>(min_samples - 1),
        dists.end());
    core[i] = dists[min_samples - 1];
  }
  return core;
}

TEST(Hdbscan, CoreDistancesMatchTheRowLoopBitwise) {
  // The pass HDBSCAN now calls, with its scalar arithmetic, against the
  // loop it replaced: equal bits on blobs with noise, on repeated points
  // (ties), and on 600 points, where the pass runs on the pool unless
  // allow_parallel is off.
  Matrix repeated = blobs({{0, 0}, {6, 0}}, {0.7, 0.3}, {20, 20}, 11);
  for (std::size_t i = 0; i < repeated.rows(); i += 3) {
    repeated.set_row(i, repeated.row(i / 2));
  }
  const std::vector<Matrix> sets = {
      blobs({{0, 0}, {20, 0}, {0, 20}}, {0.5, 1.5, 3.0}, {30, 30, 30}, 10,
            /*noise_points=*/12),
      repeated,
      blobs({{0, 0}, {12, 0}, {0, 12}, {12, 12}}, {0.6, 1.0, 1.4, 2.0},
            {150, 150, 150, 150}, 12)};
  for (const Matrix& pts : sets) {
    for (const std::size_t min_samples : {1u, 2u, 5u, 16u}) {
      const std::vector<double> want =
          reference_core_distances(pts, min_samples);
      for (const bool allow_parallel : {true, false}) {
        const std::vector<double> got = core_distances(
            pts, min_samples,
            {.use_gemm = false, .allow_parallel = allow_parallel});
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "n=" << pts.rows() << ", min_samples=" << min_samples
              << ", point " << i;
        }
      }
    }
  }
}

TEST(Hdbscan, RejectsNonFinitePointsNamingRowAndColumn) {
  // A NaN would make NaN distances, which nth_element cannot order (not a
  // strict weak ordering); any NaN or ±inf coordinate is refused instead.
  const Matrix pts = blobs({{0, 0}, {20, 0}}, {0.5, 0.5}, {10, 10}, 13);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (std::size_t col = 0; col < 2; ++col) {
      Matrix broken = pts;
      broken(7, col) = bad;
      try {
        (void)hdbscan(broken, HdbscanConfig{3, 5});
        ADD_FAILURE() << "value " << bad << " in column " << col
                      << " was accepted";
      } catch (const CheckError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("row 7, column " + std::to_string(col)),
                  std::string::npos)
            << msg;
      }
    }
  }
}

TEST(Hdbscan, DeterministicGivenData) {
  const Matrix pts = blobs({{0, 0}, {20, 0}}, {0.5, 0.5}, {25, 25}, 9);
  const HdbscanResult r1 = hdbscan(pts, HdbscanConfig{4, 8});
  const HdbscanResult r2 = hdbscan(pts, HdbscanConfig{4, 8});
  EXPECT_EQ(r1.labels, r2.labels);
}

}  // namespace
}  // namespace arams::cluster
