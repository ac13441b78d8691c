#include "cluster/optics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "embed/knn.hpp"
#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::cluster {

using linalg::Matrix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Point pairs (n²) from which the core pass fans its row bands out across
// the shared pool; below it the dispatch costs more than the pass.
constexpr std::size_t kParallelPairThreshold = std::size_t{1} << 18;

/// A d² at or above sq_bound(r) has a square root of at least r, so it
/// cannot lower the reachability r. fl(r·r) and its product with
/// 1 + 2⁻⁴⁰ each round by a relative 2⁻⁵³ at most, which leaves the bound
/// above the exact r², and sqrt and its rounding are monotone while r is a
/// double. Below r = 2⁻⁵⁰⁰, where r² could leave the normal range and round
/// coarsely, the bound is +inf and every d² takes its square root; above
/// r = 2⁵¹², and at r = +inf, r·r overflows to +inf with the same effect.
double sq_bound(double r) {
  return r >= 0x1p-500 ? (r * r) * (1.0 + 0x1p-40) : kInf;
}

/// The validated point set both passes read. Every d²(p, q) is formed
/// with the arithmetic of one NeighborSearcher::sq_dists_to row from p
/// (embed/distance.hpp). With use_gemm that is the Gram value from
/// linalg::matmul_nt_row, the GEMM's own one-row loop, over the points
/// stored transposed, then embed::gram_sq_dist with the hoisted row norms.
/// Without it, the engine's scalar row (embed::pairwise_sq_dists) in the
/// core pass and embed::sq_dist per pair in the traversal.
struct PointSet {
  PointSet(const Matrix& pts, const embed::DistanceOptions& opts,
           linalg::Workspace& ws, const char* what)
      : points(pts), gemm(opts.use_gemm) {
    embed::check_finite(pts, what);
    if (!gemm) return;
    const std::size_t n = pts.rows();
    norms = ws.vec(linalg::wslot::kOpticsNorms, n);
    embed::row_sq_norms(pts, norms);
    cols = &ws.mat(linalg::wslot::kOpticsCols, pts.cols(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t t = 0; t < pts.cols(); ++t) {
        (*cols)(t, i) = pts(i, t);
      }
    }
  }

  const Matrix& points;
  bool gemm;
  std::span<double> norms;  ///< ‖x_i‖² (use_gemm only)
  Matrix* cols = nullptr;   ///< d×n, column i = point i (use_gemm only)
};

/// core[p] = square root of the k-th smallest d²(p, q) over q ≠ p, for
/// every p. Each core distance depends only on its own row of d², so the
/// rows split into bands that run on the shared pool, each band with its
/// own Gram row and embed::select_k scratch; the result is the same bits
/// at any pool size. sqrt is correctly rounded and monotone, so this is
/// the k-th smallest distance, bit for bit.
void core_pass(const PointSet& set, std::size_t k, bool allow_parallel,
               std::span<double> core) {
  const Matrix& pts = set.points;
  const std::size_t n = pts.rows();
  const auto band = [&](std::size_t p0, std::size_t p1) {
    std::vector<double> gram(set.gemm ? n : 0);
    Matrix row;
    linalg::Workspace ws;
    std::vector<std::pair<double, std::size_t>> best;
    for (std::size_t p = p0; p < p1; ++p) {
      if (set.gemm) {
        linalg::matmul_nt_row(pts.row(p), set.cols->data(), n, gram);
        const double np = set.norms[p];
        embed::select_k(n, p, k, best, [&](std::size_t q) {
          return embed::gram_sq_dist(np, set.norms[q], gram[q]);
        });
      } else {
        embed::pairwise_sq_dists(linalg::MatrixView::rows_of(pts, p, p + 1),
                                 pts, ws, row, {.use_gemm = false});
        const double* d2 = row.data();
        embed::select_k(n, p, k, best, [&](std::size_t q) { return d2[q]; });
      }
      core[p] = std::sqrt(best[k - 1].first);
    }
  };
  parallel::ThreadPool* pool = nullptr;
  if (allow_parallel && n * n >= kParallelPairThreshold) {
    pool = &parallel::shared_pool();
    if (pool->thread_count() < 2) pool = nullptr;
  }
  if (pool == nullptr) {
    band(0, n);
    return;
  }
  const std::size_t bands = std::min(n, pool->thread_count() * 4);
  pool->parallel_for(bands, [&](std::size_t t) {
    band(n * t / bands, n * (t + 1) / bands);
  });
}

}  // namespace

std::vector<double> core_distances(const Matrix& points, std::size_t k,
                                   const embed::DistanceOptions& opts) {
  ARAMS_CHECK(k >= 1 && k < points.rows(),
              "core distances need 1 <= k < n (got k=" + std::to_string(k) +
                  ", n=" + std::to_string(points.rows()) + ")");
  linalg::Workspace ws;
  const PointSet set(points, opts, ws, "cluster::core_distances");
  std::vector<double> core(points.rows());
  core_pass(set, k, opts.allow_parallel, core);
  return core;
}

OpticsResult optics(const Matrix& points, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts) {
  const std::size_t n = points.rows();
  ARAMS_CHECK(n >= 2, "OPTICS needs at least two points");
  ARAMS_CHECK(config.min_pts >= 2 && config.min_pts <= n,
              "min_pts out of range");
  static obs::Histogram& core_dist_seconds =
      obs::metrics().histogram("cluster.core_dist_seconds");
  PointSet set(points, opts, ws, "cluster::optics");

  OpticsResult result;
  result.order.reserve(n);
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);

  // Phase one: every core distance, up front. The point itself counts
  // toward min_pts, as in the original paper, so the core distance is the
  // (min_pts−1)-th nearest other point, and +inf beyond max_eps.
  Stopwatch timer;
  core_pass(set, config.min_pts - 1, opts.allow_parallel,
            result.core_distance);
  for (double& core : result.core_distance) {
    if (!(core <= config.max_eps)) core = kInf;
  }
  core_dist_seconds.observe(timer.seconds());

  // Phase two: the visit order of Ankerst et al. over a compacted live
  // set. Slot i holds unvisited point index[i] with its reachability and
  // that reachability's sq_bound (and, with use_gemm, its norm and its
  // coordinates in column i of cols); visiting a point swap-removes its
  // slot. Each visit lowers the live reachabilities through the visited
  // point p. That is possible only where core(p) < reach(q), so only there
  // is d² formed, and only where d² is below the bound is its square root
  // taken. The same pass picks the next point: the lexicographically
  // smallest (reachability, index), +inf included. That is the entry a
  // lazy-deletion min-heap of (reachability, index) pops next and, when no
  // reachability is finite, the outer loop's restart at the smallest
  // unvisited index.
  const std::span<std::size_t> index =
      ws.idx(linalg::wslot::kOpticsIndex, n);
  const std::span<double> reach = ws.vec(linalg::wslot::kOpticsReach, n);
  const std::span<double> bound = ws.vec(linalg::wslot::kOpticsBound, n);
  const std::span<double> gram = ws.vec(linalg::wslot::kOpticsGram, n);
  std::iota(index.begin(), index.end(), std::size_t{0});
  std::fill(reach.begin(), reach.end(), kInf);
  std::fill(bound.begin(), bound.end(), kInf);
  const std::size_t d = points.cols();
  std::size_t live = n;
  std::size_t slot = 0;  // every reachability is +inf: point 0 comes first
  for (;;) {
    const std::size_t p = index[slot];
    result.order.push_back(p);
    result.reachability[p] = reach[slot];
    const double np = set.gemm ? set.norms[slot] : 0.0;
    --live;
    index[slot] = index[live];
    reach[slot] = reach[live];
    bound[slot] = bound[live];
    if (set.gemm) {
      set.norms[slot] = set.norms[live];
      for (std::size_t t = 0; t < d; ++t) {
        (*set.cols)(t, slot) = (*set.cols)(t, live);
      }
    }
    if (live == 0) break;

    const double core = result.core_distance[p];
    const auto visit = [&](const auto& sq_dist_to) {
      std::size_t next = 0;
      std::size_t next_index = n;
      double next_reach = kInf;
      for (std::size_t i = 0; i < live; ++i) {
        double r = reach[i];
        if (core < r) {
          const double sq = sq_dist_to(i);
          if (sq < bound[i]) {
            const double dist = std::sqrt(sq);
            if (dist <= config.max_eps) {
              r = std::min(r, std::max(core, dist));
              reach[i] = r;
              bound[i] = sq_bound(r);
            }
          }
        }
        if (r < next_reach || (r == next_reach && index[i] < next_index)) {
          next_reach = r;
          next_index = index[i];
          next = i;
        }
      }
      return next;
    };
    if (set.gemm) {
      // One Gram row over the live set; a non-core point lowers nothing.
      if (core < kInf) {
        linalg::matmul_nt_row(points.row(p), set.cols->data(), n,
                              gram.first(live));
      }
      slot = visit([&](std::size_t i) {
        return embed::gram_sq_dist(np, set.norms[i], gram[i]);
      });
    } else {
      const std::span<const double> xp = points.row(p);
      slot = visit([&](std::size_t i) {
        return embed::sq_dist(xp, points.row(index[i]));
      });
    }
  }
  return result;
}

OpticsResult optics(const Matrix& points, const OpticsConfig& config) {
  linalg::Workspace ws;
  return optics(points, config, ws);
}

std::vector<int> extract_dbscan(const OpticsResult& result, double eps) {
  const std::size_t n = result.order.size();
  std::vector<int> labels(n, -1);
  int cluster = -1;
  for (const std::size_t p : result.order) {
    if (result.reachability[p] > eps) {
      if (result.core_distance[p] <= eps) {
        ++cluster;
        labels[p] = cluster;
      }  // else: noise, stays -1
    } else if (cluster >= 0) {
      labels[p] = cluster;
    }
  }
  return labels;
}

namespace {

/// Recursive reachability-valley splitting (simplified ξ extraction, see
/// header). Positions are indices into result.order.
void split_interval(const std::vector<double>& r, std::size_t s,
                    std::size_t e, double xi, std::size_t min_size,
                    std::vector<std::pair<std::size_t, std::size_t>>& leaves) {
  if (e - s < min_size) return;
  // Largest interior reachability is the candidate split point; position s
  // is excluded because r[s] is the entry edge into this valley.
  std::size_t m = s + 1;
  for (std::size_t i = s + 1; i < e; ++i) {
    if (r[i] > r[m]) m = i;
  }
  // Significance: the candidate must be a statistical outlier against the
  // rest of the valley (mean + 3σ), shrunk by the ξ factor. Ordinary
  // intra-cluster reachability noise stays below this; genuine
  // cluster-boundary spikes exceed it by an order of magnitude.
  double mean = 0.0, m2 = 0.0;
  std::size_t count = 0;
  for (std::size_t i = s + 1; i < e; ++i) {
    if (i == m || std::isinf(r[i])) continue;
    ++count;
    const double delta = r[i] - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (r[i] - mean);
  }
  const double stddev =
      count > 1 ? std::sqrt(m2 / static_cast<double>(count - 1)) : 0.0;
  const bool significant =
      std::isinf(r[m]) ||
      (count > 1 && r[m] * (1.0 - xi) > mean + 3.0 * stddev);
  if (!significant) {
    leaves.emplace_back(s, e);
    return;
  }
  const std::size_t before = leaves.size();
  split_interval(r, s, m, xi, min_size, leaves);
  split_interval(r, m, e, xi, min_size, leaves);
  if (leaves.size() == before) {
    // Both halves too small — keep the whole interval as one cluster.
    leaves.emplace_back(s, e);
  }
}

}  // namespace

std::vector<int> extract_xi(const OpticsResult& result, double xi,
                            std::size_t min_cluster_size) {
  ARAMS_CHECK(xi > 0.0 && xi < 1.0, "xi must be in (0, 1)");
  const std::size_t n = result.order.size();
  // Reachability in ordering position space.
  std::vector<double> r(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    r[pos] = result.reachability[result.order[pos]];
  }
  std::vector<std::pair<std::size_t, std::size_t>> leaves;
  split_interval(r, 0, n, xi, min_cluster_size, leaves);

  std::vector<int> labels(n, -1);
  int cluster = 0;
  for (const auto& [s, e] : leaves) {
    for (std::size_t pos = s; pos < e; ++pos) {
      labels[result.order[pos]] = cluster;
    }
    ++cluster;
  }
  return labels;
}

std::vector<int> extract_auto(const OpticsResult& result, double quantile) {
  ARAMS_CHECK(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
  std::vector<double> finite;
  finite.reserve(result.reachability.size());
  for (const double v : result.reachability) {
    if (!std::isinf(v)) finite.push_back(v);
  }
  if (finite.empty()) {
    return std::vector<int>(result.order.size(), -1);
  }
  const auto idx = static_cast<std::size_t>(
      quantile * static_cast<double>(finite.size() - 1));
  std::nth_element(finite.begin(),
                   finite.begin() + static_cast<std::ptrdiff_t>(idx),
                   finite.end());
  // A small headroom above the quantile keeps cluster interiors connected.
  return extract_dbscan(result, finite[idx] * 1.05);
}

std::size_t cluster_count(const std::vector<int>& labels) {
  int mx = -1;
  for (const int l : labels) mx = std::max(mx, l);
  return static_cast<std::size_t>(mx + 1);
}

}  // namespace arams::cluster
