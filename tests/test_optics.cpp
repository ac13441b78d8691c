// OPTICS ordering and cluster extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <tuple>

#include "cluster/metrics.hpp"
#include "cluster/optics.hpp"
#include "embed/ann/searcher.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rerun_self.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::cluster {
namespace {

using linalg::Matrix;

// The parity sweep runs at pool size 4 in this process (the core pass
// fans out on the shared pool, whose size is read once, before first use)
// and at pool size 1 in a child (SweepHoldsOnAOneThreadPool). An explicit
// ARAMS_POOL_THREADS wins.
const int g_pool_env = ::setenv("ARAMS_POOL_THREADS", "4", 0);

/// Three tight blobs at prescribed centers, plus optional far noise points.
Matrix blobs(std::size_t per_cluster, double spread, std::uint64_t seed,
             std::size_t noise_points = 0) {
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Matrix pts(3 * per_cluster + noise_points, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < 3 * per_cluster; ++i) {
    const auto c = i / per_cluster;
    pts(i, 0) = centers[c][0] + spread * rng.normal();
    pts(i, 1) = centers[c][1] + spread * rng.normal();
  }
  for (std::size_t i = 0; i < noise_points; ++i) {
    pts(3 * per_cluster + i, 0) = rng.uniform(40.0, 80.0);
    pts(3 * per_cluster + i, 1) = rng.uniform(40.0, 80.0);
  }
  return pts;
}

TEST(Optics, ValidatesArguments) {
  EXPECT_THROW(optics(Matrix(1, 2), OpticsConfig{}), CheckError);
  OpticsConfig bad;
  bad.min_pts = 1;
  EXPECT_THROW(optics(blobs(5, 0.1, 1), bad), CheckError);
}

TEST(Optics, OrderIsAPermutation) {
  const Matrix pts = blobs(10, 0.3, 2);
  const OpticsResult r = optics(pts, OpticsConfig{4});
  std::set<std::size_t> seen(r.order.begin(), r.order.end());
  EXPECT_EQ(seen.size(), pts.rows());
  EXPECT_EQ(r.order.size(), pts.rows());
}

TEST(Optics, ClusterMembersContiguousInOrdering) {
  // With three well-separated blobs, each cluster's points occupy one
  // contiguous run of the ordering (one jump between clusters).
  const Matrix pts = blobs(12, 0.2, 3);
  const OpticsResult r = optics(pts, OpticsConfig{4});
  int jumps = 0;
  for (std::size_t pos = 1; pos < r.order.size(); ++pos) {
    const auto cluster_of = [](std::size_t idx) { return idx / 12; };
    if (cluster_of(r.order[pos]) != cluster_of(r.order[pos - 1])) ++jumps;
  }
  EXPECT_EQ(jumps, 2);
}

TEST(Optics, ReachabilityLowInsideClusters) {
  const Matrix pts = blobs(15, 0.2, 4);
  const OpticsResult r = optics(pts, OpticsConfig{4});
  // Finite reachabilities split into small (intra-cluster) and two large
  // (inter-cluster) values.
  std::vector<double> finite;
  for (const double v : r.reachability) {
    if (!std::isinf(v)) finite.push_back(v);
  }
  std::sort(finite.begin(), finite.end());
  EXPECT_GT(finite.back(), 5.0);              // a jump between blobs
  EXPECT_LT(finite[finite.size() / 2], 1.0);  // median is intra-blob
}

TEST(Optics, MaxEpsLimitsReachability) {
  const Matrix pts = blobs(10, 0.2, 5);
  OpticsConfig config;
  config.min_pts = 3;
  config.max_eps = 2.0;  // blobs are 10 apart: never bridged
  const OpticsResult r = optics(pts, config);
  for (const double v : r.reachability) {
    EXPECT_TRUE(std::isinf(v) || v <= 2.0);
  }
}

TEST(ExtractDbscan, RecoversThreeBlobs) {
  const Matrix pts = blobs(15, 0.2, 6);
  const OpticsResult r = optics(pts, OpticsConfig{4});
  const auto labels = extract_dbscan(r, 2.0);
  EXPECT_EQ(cluster_count(labels), 3u);
  // All points clustered (no noise among tight blobs).
  for (const int l : labels) EXPECT_GE(l, 0);
}

TEST(ExtractDbscan, MarksFarPointsAsNoise) {
  const Matrix pts = blobs(15, 0.2, 7, /*noise_points=*/3);
  OpticsConfig config;
  config.min_pts = 5;
  const OpticsResult r = optics(pts, config);
  const auto labels = extract_dbscan(r, 2.0);
  int noise = 0;
  for (std::size_t i = 45; i < 48; ++i) {
    if (labels[i] == -1) ++noise;
  }
  EXPECT_GE(noise, 2);  // the scattered far points are not dense
}

TEST(ExtractDbscan, TinyEpsMakesEverythingNoise) {
  const Matrix pts = blobs(10, 0.5, 8);
  const OpticsResult r = optics(pts, OpticsConfig{4});
  const auto labels = extract_dbscan(r, 1e-9);
  for (const int l : labels) EXPECT_EQ(l, -1);
}

TEST(ExtractAuto, RecoversBlobsWithoutManualEps) {
  const Matrix pts = blobs(20, 0.25, 9);
  const OpticsResult r = optics(pts, OpticsConfig{5});
  const auto labels = extract_auto(r);
  EXPECT_EQ(cluster_count(labels), 3u);
}

TEST(ExtractXi, FindsAtLeastTheMajorClusters) {
  const Matrix pts = blobs(20, 0.25, 10);
  const OpticsResult r = optics(pts, OpticsConfig{5});
  const auto labels = extract_xi(r, 0.05, 8);
  EXPECT_GE(cluster_count(labels), 3u);
  // Each blob's points overwhelmingly share one label.
  for (int blob = 0; blob < 3; ++blob) {
    std::map<int, int> votes;
    for (std::size_t i = 0; i < 20; ++i) {
      ++votes[labels[static_cast<std::size_t>(blob) * 20 + i]];
    }
    int best = 0;
    for (const auto& [l, c] : votes) best = std::max(best, c);
    EXPECT_GE(best, 15);
  }
}

TEST(ExtractXi, ValidatesXiRange) {
  const Matrix pts = blobs(5, 0.2, 11);
  const OpticsResult r = optics(pts, OpticsConfig{3});
  EXPECT_THROW(extract_xi(r, 0.0), CheckError);
  EXPECT_THROW(extract_xi(r, 1.0), CheckError);
}

TEST(ExtractAuto, ValidatesQuantile) {
  const Matrix pts = blobs(5, 0.2, 12);
  const OpticsResult r = optics(pts, OpticsConfig{3});
  EXPECT_THROW(extract_auto(r, 0.0), CheckError);
  EXPECT_THROW(extract_auto(r, 1.0), CheckError);
}

/// Reference DBSCAN (textbook implementation, written independently of the
/// OPTICS code) used to cross-validate extract_dbscan.
std::vector<int> reference_dbscan(const Matrix& pts, double eps,
                                  std::size_t min_pts) {
  const std::size_t n = pts.rows();
  const auto dist = [&](std::size_t a, std::size_t b) {
    double s = 0.0;
    for (std::size_t c = 0; c < pts.cols(); ++c) {
      const double d = pts(a, c) - pts(b, c);
      s += d * d;
    }
    return std::sqrt(s);
  };
  const auto neighbors = [&](std::size_t p) {
    std::vector<std::size_t> out;
    for (std::size_t q = 0; q < n; ++q) {
      if (dist(p, q) <= eps) out.push_back(q);  // includes p itself
    }
    return out;
  };
  std::vector<int> labels(n, -2);  // -2 = unvisited, -1 = noise
  int cluster = -1;
  for (std::size_t p = 0; p < n; ++p) {
    if (labels[p] != -2) continue;
    auto seeds = neighbors(p);
    if (seeds.size() < min_pts) {
      labels[p] = -1;
      continue;
    }
    ++cluster;
    labels[p] = cluster;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::size_t q = seeds[i];
      if (labels[q] == -1) labels[q] = cluster;  // border point
      if (labels[q] != -2) continue;
      labels[q] = cluster;
      const auto qn = neighbors(q);
      if (qn.size() >= min_pts) {
        seeds.insert(seeds.end(), qn.begin(), qn.end());
      }
    }
  }
  for (auto& l : labels) {
    if (l == -2) l = -1;
  }
  return labels;
}

class OpticsDbscanCrossCheck : public ::testing::TestWithParam<double> {};

TEST_P(OpticsDbscanCrossCheck, ExtractionMatchesReferenceDbscan) {
  // The OPTICS ε-cut must produce the same partition as a textbook DBSCAN
  // at the same (ε, min_pts) — up to label permutation and the well-known
  // border-point tie (a border point in range of two clusters may be
  // assigned to either). Compare with ARI ≈ 1 on tie-free data.
  const double eps = GetParam();
  const Matrix pts = blobs(15, 0.25, 42);
  constexpr std::size_t kMinPts = 4;
  const OpticsResult r = optics(pts, OpticsConfig{kMinPts});
  const auto from_optics = extract_dbscan(r, eps);
  const auto reference = reference_dbscan(pts, eps, kMinPts);

  // Core points must agree on noise-vs-clustered exactly; border points
  // (non-core) may differ — Ankerst et al. note ExtractDBSCAN deviates
  // from DBSCAN precisely on "some border objects".
  const auto is_core = [&](std::size_t p) {
    std::size_t within = 0;
    for (std::size_t q = 0; q < pts.rows(); ++q) {
      const double d = std::hypot(pts(p, 0) - pts(q, 0),
                                  pts(p, 1) - pts(q, 1));
      if (d <= eps) ++within;  // includes p itself
    }
    return within >= kMinPts;
  };
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    if ((from_optics[i] == -1) != (reference[i] == -1)) {
      EXPECT_FALSE(is_core(i)) << "core point " << i << " disagrees";
    }
  }
  // Same partition of the clustered points.
  std::vector<int> a, b;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    if (from_optics[i] >= 0 && reference[i] >= 0) {
      a.push_back(from_optics[i]);
      b.push_back(reference[i]);
    }
  }
  if (a.size() >= 2) {
    EXPECT_GT(adjusted_rand_index(a, b), 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, OpticsDbscanCrossCheck,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0));

TEST(Optics, OrderingBitwiseStableAcrossEngineModes) {
  // The OPTICS traversal is inherently sequential, so neither enabling the
  // engine's parallel fix-up nor reusing a warm workspace may perturb the
  // result: parallel and serial runs of the same arithmetic are bitwise
  // identical, and repeated runs through one workspace reproduce
  // themselves exactly.
  const Matrix pts = blobs(14, 0.3, 21, /*noise_points=*/4);
  linalg::Workspace ws;
  const OpticsResult serial =
      optics(pts, OpticsConfig{4}, ws, {.allow_parallel = false});
  const OpticsResult parallel =
      optics(pts, OpticsConfig{4}, ws, {.allow_parallel = true});
  const OpticsResult again =
      optics(pts, OpticsConfig{4}, ws, {.allow_parallel = true});
  EXPECT_EQ(parallel.order, serial.order);
  ASSERT_EQ(parallel.reachability.size(), serial.reachability.size());
  for (std::size_t i = 0; i < serial.reachability.size(); ++i) {
    EXPECT_EQ(parallel.reachability[i], serial.reachability[i]) << "at " << i;
    EXPECT_EQ(parallel.core_distance[i], serial.core_distance[i])
        << "at " << i;
    EXPECT_EQ(again.reachability[i], parallel.reachability[i]) << "at " << i;
  }
  EXPECT_EQ(again.order, parallel.order);
}

TEST(Optics, GemmEngineKeepsOrderingAndReachability) {
  // GEMM range queries round distances differently; on data without exact
  // distance ties the traversal makes the same choices, so the ordering is
  // identical and reachabilities agree to rounding.
  const Matrix pts = blobs(14, 0.3, 22, /*noise_points=*/4);
  const OpticsResult ref = optics(pts, OpticsConfig{4});
  linalg::Workspace ws;
  const OpticsResult fast =
      optics(pts, OpticsConfig{4}, ws, {.use_gemm = true});
  EXPECT_EQ(fast.order, ref.order);
  ASSERT_EQ(fast.reachability.size(), ref.reachability.size());
  for (std::size_t i = 0; i < ref.reachability.size(); ++i) {
    if (std::isinf(ref.reachability[i])) {
      EXPECT_TRUE(std::isinf(fast.reachability[i])) << "at " << i;
    } else {
      EXPECT_NEAR(fast.reachability[i], ref.reachability[i], 1e-9)
          << "at " << i;
    }
  }
}

/// The lazy-deletion-heap traversal optics() used before the heap-free
/// rewrite, kept verbatim (minus telemetry) as the bitwise reference: one
/// sq_dists_to row per visit, square roots of the whole row, nth_element
/// over the neighbour distances, and a (reachability, index) min-heap with
/// stale entries skipped on pop.
OpticsResult reference_heap_optics(embed::NeighborSearcher& index,
                                   const OpticsConfig& config,
                                   linalg::Workspace& ws,
                                   const embed::DistanceOptions& opts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Matrix& points = index.points();
  const std::size_t n = points.rows();

  OpticsResult result;
  result.order.reserve(n);
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);

  std::vector<bool> processed(n, false);
  std::vector<double> dists(n);
  std::vector<double> dsq(n);
  std::vector<std::size_t> neighbors;
  std::vector<double> nd(n);

  const auto range_query = [&](std::size_t p) {
    index.sq_dists_to(points.row(p), ws, dsq, opts);
    neighbors.clear();
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p) continue;
      dists[q] = std::sqrt(dsq[q]);
      if (dists[q] <= config.max_eps) {
        neighbors.push_back(q);
      }
    }
    if (neighbors.size() + 1 >= config.min_pts) {
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        nd[i] = dists[neighbors[i]];
      }
      const std::size_t kth = config.min_pts - 2;
      std::nth_element(nd.begin(),
                       nd.begin() + static_cast<std::ptrdiff_t>(kth),
                       nd.begin() + static_cast<std::ptrdiff_t>(
                                        neighbors.size()));
      result.core_distance[p] = nd[kth];
    } else {
      result.core_distance[p] = kInf;
    }
  };

  using Seed = std::pair<double, std::size_t>;
  std::priority_queue<Seed, std::vector<Seed>, std::greater<>> seeds;

  const auto update_seeds = [&](std::size_t p) {
    const double core = result.core_distance[p];
    if (std::isinf(core)) return;
    for (const std::size_t q : neighbors) {
      if (processed[q]) continue;
      const double reach = std::max(core, dists[q]);
      if (reach < result.reachability[q]) {
        result.reachability[q] = reach;
        seeds.emplace(reach, q);
      }
    }
  };

  for (std::size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    processed[start] = true;
    range_query(start);
    result.order.push_back(start);
    update_seeds(start);

    while (!seeds.empty()) {
      const auto [r, q] = seeds.top();
      seeds.pop();
      if (processed[q] || r > result.reachability[q]) continue;
      processed[q] = true;
      range_query(q);
      result.order.push_back(q);
      update_seeds(q);
    }
  }
  return result;
}

OpticsResult reference_heap_optics(const Matrix& pts,
                                   const OpticsConfig& config,
                                   const embed::DistanceOptions& opts) {
  linalg::Workspace ws;
  const auto index = embed::make_searcher("exact", /*seed=*/0);
  index->build(pts, ws, opts);
  return reference_heap_optics(*index, config, ws, opts);
}

/// order, reachability and core_distance compared with == (an inf equals
/// an inf; no tolerance).
void expect_bitwise_equal(const OpticsResult& got, const OpticsResult& want) {
  EXPECT_EQ(got.order, want.order);
  ASSERT_EQ(got.reachability.size(), want.reachability.size());
  ASSERT_EQ(got.core_distance.size(), want.core_distance.size());
  for (std::size_t i = 0; i < want.reachability.size(); ++i) {
    EXPECT_EQ(got.reachability[i], want.reachability[i]) << "at " << i;
    EXPECT_EQ(got.core_distance[i], want.core_distance[i]) << "at " << i;
  }
}

/// Blobs whose points each appear twice or three times, so equal distances
/// and equal reachabilities occur and the ordering rests on the index
/// tie-break.
Matrix duplicated_blobs() {
  const Matrix base = blobs(8, 0.3, 31, /*noise_points=*/2);
  Matrix pts(3 * base.rows(), 2);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    // Interleave the copies so duplicates do not sit at adjacent indices.
    const std::size_t src = (i * 7) % base.rows();
    pts.set_row(i, base.row(src));
  }
  return pts;
}

/// Four far-apart groups of different sizes and densities plus isolated
/// points: with a finite max_eps no group reaches another, so the traversal
/// restarts, reachabilities stay inf and sparse points are not core.
Matrix disconnected_components() {
  const double centers[4][2] = {
      {0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {100.0, 100.0}};
  const std::size_t sizes[4] = {12, 7, 3, 20};
  const double spreads[4] = {0.3, 0.8, 0.2, 1.5};
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  Matrix pts(total + 4, 2);
  Rng rng(77);
  std::size_t row = 0;
  // Interleave the groups' points so the restart path meets them out of
  // index order.
  for (std::size_t i = 0; row < total; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (i >= sizes[c]) continue;
      pts(row, 0) = centers[c][0] + spreads[c] * rng.normal();
      pts(row, 1) = centers[c][1] + spreads[c] * rng.normal();
      ++row;
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    pts(row, 0) = 300.0 + 60.0 * static_cast<double>(i);
    pts(row, 1) = -200.0;
    ++row;
  }
  return pts;
}

/// Three blobs in `dim` dimensions (centers 10 apart on the first three
/// axes, or as many as there are), noise points far off, and every
/// seventh point repeated so equal distances occur at this width too.
Matrix blobs_in(std::size_t dim, std::size_t per_cluster, std::uint64_t seed) {
  const std::size_t clustered = 3 * per_cluster;
  const std::size_t noise = 6;
  const std::size_t copies = clustered / 7;
  Matrix pts(clustered + noise + copies, dim);
  Rng rng(seed);
  for (std::size_t i = 0; i < clustered; ++i) {
    const std::size_t c = i / per_cluster;
    for (std::size_t t = 0; t < dim; ++t) {
      const double center = (t == c % dim && c > 0) ? 10.0 : 0.0;
      pts(i, t) = center + 0.4 * rng.normal();
    }
  }
  for (std::size_t i = 0; i < noise; ++i) {
    for (std::size_t t = 0; t < dim; ++t) {
      pts(clustered + i, t) = rng.uniform(30.0, 60.0);
    }
  }
  for (std::size_t i = 0; i < copies; ++i) {
    pts.set_row(clustered + noise + i, pts.row(7 * i));
  }
  return pts;
}

/// A 2-D embedding at the size the core pass fans out at (1000 points,
/// 10⁶ pairs): five blobs of different spreads, like a UMAP picture of a
/// run, plus a sprinkle of noise.
Matrix large_embedding() {
  const double centers[5][2] = {
      {0.0, 0.0}, {8.0, 1.0}, {-3.0, 9.0}, {6.0, 10.0}, {14.0, -6.0}};
  const double spreads[5] = {0.5, 0.8, 0.3, 1.2, 0.6};
  Matrix pts(1000, 2);
  Rng rng(97);
  for (std::size_t i = 0; i < 960; ++i) {
    const std::size_t c = i % 5;
    pts(i, 0) = centers[c][0] + spreads[c] * rng.normal();
    pts(i, 1) = centers[c][1] + spreads[c] * rng.normal();
  }
  for (std::size_t i = 960; i < 1000; ++i) {
    pts(i, 0) = rng.uniform(-20.0, 30.0);
    pts(i, 1) = rng.uniform(-20.0, 30.0);
  }
  return pts;
}

/// Two tight clusters of 2300 points each, 0.6 apart, and eight outliers
/// tens of units out: the d = 2 grid spans the outliers, so the clusters
/// fill a cell or two each, most cells are empty, and an outlier's search
/// goes many rings out before it meets min_pts − 1 other points.
Matrix clusters_and_outliers() {
  Matrix pts(4608, 2);
  Rng rng(88);
  for (std::size_t i = 0; i < 4600; ++i) {
    const double shift = i % 2 == 0 ? 0.0 : 0.6;
    pts(i, 0) = shift + 0.05 * rng.normal();
    pts(i, 1) = 0.5 * shift + 0.05 * rng.normal();
  }
  for (std::size_t i = 4600; i < 4608; ++i) {
    const double angle = 0.8 * static_cast<double>(i - 4600);
    pts(i, 0) = 40.0 * std::cos(angle) + rng.uniform(-3.0, 3.0);
    pts(i, 1) = 30.0 * std::sin(angle) + rng.uniform(-3.0, 3.0);
  }
  return pts;
}

/// Blobs and noise laid on one line: every point at x = 1.5 (vertical) or
/// at y = −2 (horizontal), so the grid has one column or one row.
Matrix on_a_line(bool vertical) {
  const Matrix base = blobs(40, 0.4, 24, /*noise_points=*/6);
  Matrix pts(base.rows(), 2);
  for (std::size_t i = 0; i < base.rows(); ++i) {
    pts(i, vertical ? 0 : 1) = vertical ? 1.5 : -2.0;
    pts(i, vertical ? 1 : 0) = base(i, 0) + base(i, 1);
  }
  return pts;
}

/// Fifty copies of one point: a one-cell grid, every d² the same.
Matrix identical_points() {
  Matrix pts(50, 2);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts(i, 0) = 0.7;
    pts(i, 1) = -0.3;
  }
  return pts;
}

/// The original 2-D sets, then the width and size extensions: point
/// dimensions 3, 17 and 300 (an odd k panel, and two panels of the
/// GEMM's 256-wide k blocking), each also with a finite max_eps, the
/// 1000-point embedding with and without one, and the blobs scaled to
/// 1e-160 (reachabilities below 2⁻⁵⁰⁰, whose squares are subnormal) and
/// to 1e150 (squares near the top of the range). Then the d = 2 grid's
/// edge cases: clusters_and_outliers, the two lines, identical points,
/// and the blobs scaled to 1e153, whose coordinates near 1e154 overflow
/// ‖·‖² and d² to +inf (or, through inf − inf, to the engine's clamp 0).
enum class ParitySet {
  kBlobsWithNoise,
  kDuplicates,
  kDisconnected,
  kDim3,
  kDim17,
  kDim300,
  kDim3Eps,
  kDim17Eps,
  kDim300Eps,
  kLarge,
  kLargeEps,
  kTiny,
  kHuge,
  kClustersAndOutliers,
  kVerticalLine,
  kHorizontalLine,
  kIdentical,
  kOverflow
};

Matrix scaled(Matrix pts, double factor) {
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] *= factor;
  return pts;
}

/// (data set, min_pts with 0 meaning n, use_gemm, allow_parallel).
using ParityParam = std::tuple<ParitySet, std::size_t, bool, bool>;

class OpticsHeapParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(OpticsHeapParity, MatchesLazyHeapTraversalBitwise) {
  const auto [set, min_pts, use_gemm, allow_parallel] = GetParam();
  Matrix pts;
  OpticsConfig config;
  switch (set) {
    case ParitySet::kBlobsWithNoise:
      pts = blobs(15, 0.4, 23, /*noise_points=*/6);
      break;
    case ParitySet::kDuplicates:
      pts = duplicated_blobs();
      break;
    case ParitySet::kDisconnected:
      pts = disconnected_components();
      config.max_eps = 3.0;
      break;
    case ParitySet::kDim3:
    case ParitySet::kDim3Eps:
      pts = blobs_in(3, 20, 51);
      break;
    case ParitySet::kDim17:
    case ParitySet::kDim17Eps:
      pts = blobs_in(17, 20, 52);
      break;
    case ParitySet::kDim300:
    case ParitySet::kDim300Eps:
      pts = blobs_in(300, 20, 53);
      break;
    case ParitySet::kLarge:
    case ParitySet::kLargeEps:
      pts = large_embedding();
      break;
    case ParitySet::kTiny:
      pts = scaled(blobs(15, 0.4, 23, /*noise_points=*/6), 1e-160);
      break;
    case ParitySet::kHuge:
      pts = scaled(blobs(15, 0.4, 23, /*noise_points=*/6), 1e150);
      break;
    case ParitySet::kClustersAndOutliers:
      pts = clusters_and_outliers();
      break;
    case ParitySet::kVerticalLine:
    case ParitySet::kHorizontalLine:
      pts = on_a_line(set == ParitySet::kVerticalLine);
      break;
    case ParitySet::kIdentical:
      pts = identical_points();
      break;
    case ParitySet::kOverflow:
      pts = scaled(blobs(15, 0.4, 23, /*noise_points=*/6), 1e153);
      break;
  }
  switch (set) {
    // Within a blob, d grows like sqrt(dim); these cut the sparse blob
    // edges and the noise off, so some points are not core and the
    // traversal restarts.
    case ParitySet::kDim3Eps:
      config.max_eps = 1.2;
      break;
    case ParitySet::kDim17Eps:
      config.max_eps = 2.6;
      break;
    case ParitySet::kDim300Eps:
      config.max_eps = 10.0;
      break;
    case ParitySet::kLargeEps:
      config.max_eps = 0.6;
      break;
    default:
      break;
  }
  config.min_pts = min_pts == 0 ? pts.rows() : min_pts;
  const embed::DistanceOptions opts{.use_gemm = use_gemm,
                                    .allow_parallel = allow_parallel};
  const OpticsResult want = reference_heap_optics(pts, config, opts);
  linalg::Workspace ws;
  expect_bitwise_equal(optics(pts, config, ws, opts), want);
  if (set == ParitySet::kOverflow) {
    // The case covers what it claims: some ‖·‖², and so some d², is +inf.
    bool overflowed = false;
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      overflowed |= std::isinf(pts(i, 0) * pts(i, 0) + pts(i, 1) * pts(i, 1));
    }
    EXPECT_TRUE(overflowed);
  }
  if (std::isfinite(config.max_eps) && config.min_pts <= 5) {
    // The case covers what it claims: restarts, inf reachability beyond
    // the first point, and non-core points.
    const auto inf_reach = std::count_if(
        want.reachability.begin(), want.reachability.end(),
        [](double r) { return std::isinf(r); });
    const auto non_core = std::count_if(
        want.core_distance.begin(), want.core_distance.end(),
        [](double c) { return std::isinf(c); });
    EXPECT_GE(inf_reach, 5);
    EXPECT_GE(non_core, 4);
  }
}

std::string parity_name(const ::testing::TestParamInfo<ParityParam>& info) {
  const auto [set, min_pts, use_gemm, allow_parallel] = info.param;
  const char* names[] = {"Blobs",   "Duplicates", "Disconnected",
                         "Dim3",    "Dim17",      "Dim300",
                         "Dim3Eps", "Dim17Eps",   "Dim300Eps",
                         "Large",   "LargeEps",   "Tiny",
                         "Huge",    "ClustersAndOutliers",
                         "VerticalLine", "HorizontalLine",
                         "Identical", "Overflow"};
  return std::string(names[static_cast<int>(set)]) + "_MinPts" +
         (min_pts == 0 ? std::string("N") : std::to_string(min_pts)) +
         (use_gemm ? "_Gemm" : "_Scalar") +
         (allow_parallel ? "_Parallel" : "_Serial");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpticsHeapParity,
    ::testing::Combine(::testing::Values(ParitySet::kBlobsWithNoise,
                                         ParitySet::kDuplicates,
                                         ParitySet::kDisconnected),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{30}, std::size_t{0}),
                       ::testing::Bool(), ::testing::Bool()),
    parity_name);

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpticsHeapParity,
    ::testing::Combine(
        ::testing::Values(ParitySet::kDim3, ParitySet::kDim17,
                          ParitySet::kDim300, ParitySet::kDim3Eps,
                          ParitySet::kDim17Eps, ParitySet::kDim300Eps,
                          ParitySet::kLarge, ParitySet::kLargeEps,
                          ParitySet::kTiny, ParitySet::kHuge),
        ::testing::Values(std::size_t{5}, std::size_t{30}),
        ::testing::Bool(), ::testing::Bool()),
    parity_name);

// The d = 2 grid's edge cases. The 4608-point set runs with use_gemm only:
// the grid is what it exercises, and the scalar engine, swept above, would
// form all of its n² d² per call at that size.
INSTANTIATE_TEST_SUITE_P(
    Grid, OpticsHeapParity,
    ::testing::Combine(::testing::Values(ParitySet::kVerticalLine,
                                         ParitySet::kHorizontalLine,
                                         ParitySet::kIdentical,
                                         ParitySet::kOverflow),
                       ::testing::Values(std::size_t{5}, std::size_t{30}),
                       ::testing::Bool(), ::testing::Bool()),
    parity_name);

INSTANTIATE_TEST_SUITE_P(
    GridSparse, OpticsHeapParity,
    ::testing::Combine(::testing::Values(ParitySet::kClustersAndOutliers),
                       ::testing::Values(std::size_t{5}, std::size_t{30}),
                       ::testing::Values(true), ::testing::Bool()),
    parity_name);

/// A picture of many classes, as UMAP lays a run out: twelve blobs of
/// spreads 0.15–0.48 on a 4×3 lattice two units apart, and 2% of the
/// points scattered over the box.
Matrix blob_lattice() {
  Matrix pts(1200, 2);
  Rng rng(5);
  for (std::size_t i = 0; i < 1176; ++i) {
    const std::size_t c = i % 12;
    const double spread = 0.15 + 0.03 * static_cast<double>(c);
    pts(i, 0) = 2.0 * static_cast<double>(c % 4) + spread * rng.normal();
    pts(i, 1) = 2.0 * static_cast<double>(c / 4) + spread * rng.normal();
  }
  for (std::size_t i = 1176; i < 1200; ++i) {
    pts(i, 0) = rng.uniform(-1.0, 7.0);
    pts(i, 1) = rng.uniform(-1.0, 5.0);
  }
  return pts;
}

TEST(OpticsHeapParity, GridFormsFewerThanHalfTheDistances) {
  // The d = 2 grid passes over the cells no d² of theirs can change, so on
  // a clustered picture it forms about a third of the n² d² of a full
  // scan; a grid that quietly scanned everything would form more than
  // n²/2. (What it saves depends on the picture and on n: the four-class
  // UMAP layout reads 0.34 n² at 4608 points but 0.50 n² at 1024, where
  // each point's own search is a larger share of its row.) The scalar
  // engine scans every row in phase one, n² d² on its own.
  const Matrix pts = blob_lattice();
  const std::size_t n = pts.rows();
  const obs::Counter& formed = obs::metrics().counter("cluster.sq_dists");
  linalg::Workspace ws;
  long before = formed.value();
  optics(pts, OpticsConfig{30}, ws, {});
  const long on_grid = formed.value() - before;
  std::printf("grid d² formed %ld of n² = %zu\n", on_grid, n * n);
  EXPECT_GT(on_grid, 0);
  EXPECT_LT(on_grid, static_cast<long>(n * n / 2));
  before = formed.value();
  optics(pts, OpticsConfig{30}, ws, {.use_gemm = false});
  EXPECT_GE(formed.value() - before, static_cast<long>(n * n));
}

TEST(OpticsHeapParity, LowersReachabilityByUlps) {
  // A visit that lowers a reachability by a few ulps must still take its
  // square root: a is visited first and leaves q at reachability 1, then
  // b, 2⁻⁵⁰ closer to q, lowers it to 1 − 2⁻⁵⁰ (q, far from the rest, is
  // visited last). A bound on d² that let this slip would keep 1.
  Matrix pts(4, 2);
  pts(0, 0) = 1.0;                // a
  pts(1, 0) = 1.0;                // a', keeps a's neighbourhood dense
  pts(1, 1) = 1e-9;
  pts(2, 0) = 1.0 - 0x1p-50;     // b
  // pts row 3 is q at the origin.
  for (const bool use_gemm : {true, false}) {
    const embed::DistanceOptions opts{.use_gemm = use_gemm};
    const OpticsConfig config{2};
    const OpticsResult want = reference_heap_optics(pts, config, opts);
    linalg::Workspace ws;
    const OpticsResult got = optics(pts, config, ws, opts);
    expect_bitwise_equal(got, want);
    EXPECT_EQ(got.order.back(), 3u);
    EXPECT_EQ(got.reachability[3], 1.0 - 0x1p-50) << "use_gemm " << use_gemm;
  }
}

TEST(OpticsHeapParity, CorePassFansOutOnThePool) {
  // At 10⁶ pairs the core pass runs its row bands as pool tasks, unless
  // allow_parallel is off or the pool has one thread.
  const std::size_t threads = parallel::shared_pool().thread_count();
  std::printf("pool threads %zu\n", threads);
  // Counted before each task runs, so every count is in by the time the
  // dispatching call returns.
  const obs::Histogram& tasks =
      obs::metrics().histogram("pool.task_wait_seconds");
  const Matrix pts = large_embedding();
  linalg::Workspace ws;
  long before = tasks.count();
  const OpticsResult pooled =
      optics(pts, OpticsConfig{30}, ws, {.allow_parallel = true});
  if (threads >= 2) {
    EXPECT_GE(tasks.count() - before, static_cast<long>(threads));
  } else {
    EXPECT_EQ(tasks.count(), before);
  }
  before = tasks.count();
  const OpticsResult serial =
      optics(pts, OpticsConfig{30}, ws, {.allow_parallel = false});
  EXPECT_EQ(tasks.count(), before);
  expect_bitwise_equal(pooled, serial);
}

TEST(OpticsHeapParity, SweepHoldsOnAOneThreadPool) {
  // The shared pool's size is fixed per process, so the pool-size-1 half
  // of the sweep re-runs this binary's OpticsHeapParity tests with
  // ARAMS_POOL_THREADS=1.
  const test::ChildRun run = test::rerun_self(
      "ARAMS_POOL_THREADS=1", "*OpticsHeapParity.*:-*OneThreadPool*");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("pool threads 1\n"), std::string::npos)
      << run.output;
}

TEST(OpticsHeapParity, DuplicatesProduceReachabilityTies) {
  // The duplicate set really exercises the index tie-break: some finite
  // reachability value is shared by several points.
  const OpticsResult r = optics(duplicated_blobs(), OpticsConfig{5});
  std::map<double, int> counts;
  for (const double v : r.reachability) {
    if (!std::isinf(v)) ++counts[v];
  }
  int most = 0;
  for (const auto& [v, c] : counts) most = std::max(most, c);
  EXPECT_GE(most, 2);
}

TEST(OpticsHeapParity, WarmWorkspaceAcrossCalls) {
  // One workspace reused across calls of different sizes and engine modes
  // (its slots grow and shrink between them) still reproduces the
  // reference on every call.
  linalg::Workspace ws;
  const Matrix small = blobs(6, 0.3, 41);
  const Matrix large = blobs(25, 0.5, 42, /*noise_points=*/5);
  for (int round = 0; round < 2; ++round) {
    for (const bool use_gemm : {true, false}) {
      const embed::DistanceOptions opts{.use_gemm = use_gemm};
      for (const Matrix* pts : {&large, &small}) {
        for (const std::size_t min_pts : {3u, 40u}) {
          if (min_pts > pts->rows()) continue;
          const OpticsConfig config{min_pts};
          expect_bitwise_equal(optics(*pts, config, ws, opts),
                               reference_heap_optics(*pts, config, opts));
        }
      }
    }
  }
}

TEST(Optics, RejectsNonFinitePointsUnderBothEngineModes) {
  // Two blobs of six with row 3 set to NaN: a NaN row must not sit at
  // distance 0 from every point and fuse the blobs; it is refused.
  Matrix pts(12, 2);
  Rng rng(5);
  for (std::size_t i = 0; i < 12; ++i) {
    const double c = i < 6 ? 0.0 : 20.0;
    pts(i, 0) = c + 0.3 * rng.normal();
    pts(i, 1) = c + 0.3 * rng.normal();
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix broken = pts;
    broken(3, 1) = bad;
    for (const bool use_gemm : {true, false}) {
      linalg::Workspace ws;
      EXPECT_THROW(optics(broken, OpticsConfig{3}, ws, {.use_gemm = use_gemm}),
                   CheckError)
          << "value " << bad << " use_gemm " << use_gemm;
    }
  }
  // The same points without the bad value keep the blobs apart.
  const OpticsResult r = optics(pts, OpticsConfig{3});
  EXPECT_EQ(cluster_count(extract_auto(r)), 2u);
}

TEST(ClusterCount, IgnoresNoise) {
  EXPECT_EQ(cluster_count({-1, -1, -1}), 0u);
  EXPECT_EQ(cluster_count({0, 1, -1, 1}), 2u);
}

}  // namespace
}  // namespace arams::cluster
