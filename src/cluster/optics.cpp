#include "cluster/optics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/sq_dist_2d.hpp"
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

// Points per cell the d = 2 grid is shaped for.
constexpr std::size_t kPointsPerCell = 16;

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

/// A lower bound on every d² that detail::sq_dist_row_2d forms from a
/// point p to a point q, given box_sq, at most the exact d²(p, q) but for
/// its own rounding, and norms ≥ ‖p‖² + ‖q‖² as stored; −inf, which no
/// comparison skips on, where it cannot certify one. The kernel's d² is
/// max(0, (‖p‖² + ‖q‖²) − 2g) from rounded norms and a rounded Gram value
/// g, a few ulps of ‖p‖² + ‖q‖² off the exact d². Taking 2⁻⁴⁰ of box_sq
/// and of norms off covers that and box_sq's own rounding many times
/// over; 2⁻¹⁰²² covers the absolute error of subnormal products and sums.
/// Above norms = 2¹⁰⁰⁰ a d² may overflow, so there is no bound
/// (docs/ALGORITHMS.md, "OPTICS on a cell grid").
double certified_floor(double box_sq, double norms) {
  if (!(norms <= 0x1p1000)) return -kInf;
  const double floor =
      box_sq * (1.0 - 0x1p-40) - (0x1p-40 * norms + 0x1p-1022);
  return floor < kInf ? floor : -kInf;
}

/// The d² values both passes form, per call ("cluster.sq_dists").
obs::Counter& sq_dist_count() {
  static obs::Counter& count = obs::metrics().counter("cluster.sq_dists");
  return count;
}

/// The shared pool a pass over n points runs its bands on: when
/// allow_parallel and n² reaches kParallelPairThreshold, else null (one
/// band on the caller).
parallel::ThreadPool* pass_pool(std::size_t n, bool allow_parallel) {
  if (!allow_parallel || n * n < kParallelPairThreshold) return nullptr;
  parallel::ThreadPool& pool = parallel::shared_pool();
  return pool.thread_count() >= 2 ? &pool : nullptr;
}

/// The point set at every width but the grid's. Every d²(p, q) is formed
/// with the arithmetic of one NeighborSearcher::sq_dists_to row from p
/// (embed/distance.hpp). With use_gemm that is the Gram value from
/// linalg::matmul_nt_row, the GEMM's own one-row loop, over the points
/// stored transposed, then embed::gram_sq_dist with the hoisted row norms.
/// Without use_gemm, the engine's scalar row (embed::pairwise_sq_dists) in
/// the core pass and embed::sq_dist per pair in the traversal.
struct PointSet {
  PointSet(const Matrix& pts, const embed::DistanceOptions& opts,
           linalg::Workspace& ws)
      : points(pts), gemm(opts.use_gemm) {
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

/// The point set at d = 2 with use_gemm, the width the monitor and the
/// pipeline cluster: a uniform grid of nx × ny cells over the points'
/// bounding box, shaped by the box's aspect ratio for about
/// kPointsPerCell points per cell. Cell c = j·nx + i holds the slots
/// [begin[c], begin[c + 1]), its points in index order, each slot's
/// coordinates, ‖·‖² and point index side by side. A point's column is
/// ⌊(x − x_min)·nx / width⌋, clamped (its row likewise), which never
/// decreases as x grows, so a higher column holds only larger x. That
/// floor can file a point on a grid line into either neighbour, so every
/// bound comes from the coordinates actually filed: each cell's box, and
/// the x extent of the columns from (or up to) each column. Every d² is
/// formed by detail::sq_dist_row_2d over one cell's run, each value with
/// the bits of the full-row kernel: the Gram value linalg::matmul_nt_row
/// forms at k = 2, then embed::gram_sq_dist.
struct CellGrid {
  CellGrid(const Matrix& pts, linalg::Workspace& ws);

  [[nodiscard]] std::size_t size() const { return index.size(); }
  [[nodiscard]] std::size_t cells() const { return nx * ny; }

  /// Rings around cell c that hold any cell of the grid.
  [[nodiscard]] std::size_t last_ring(std::size_t c) const {
    const std::size_t i = c % nx;
    const std::size_t j = c / nx;
    return std::max({i, nx - 1 - i, j, ny - 1 - j});
  }

  /// f(c') for every cell c' exactly r rings from cell c (r = 0: c).
  template <class F>
  void for_each_ring_cell(std::size_t c, std::size_t r, const F& f) const {
    const std::size_t i = c % nx;
    const std::size_t j = c / nx;
    const std::size_t i0 = i >= r ? i - r : 0;
    const std::size_t i1 = std::min(i + r, nx - 1);
    const std::size_t j0 = j >= r ? j - r : 0;
    const std::size_t j1 = std::min(j + r, ny - 1);
    for (std::size_t jj = j0; jj <= j1; ++jj) {
      if (jj + r == j || jj == j + r) {
        for (std::size_t ii = i0; ii <= i1; ++ii) f(jj * nx + ii);
      } else {
        if (i >= r) f(jj * nx + i - r);
        if (i + r < nx) f(jj * nx + i + r);
      }
    }
  }

  /// Lower bound on every d² the kernel forms from p = (px, py), with
  /// ‖p‖² = np, to a point of cell c.
  [[nodiscard]] double cell_floor(double px, double py, double np,
                                  std::size_t c) const {
    const double dx = std::max({0.0, x_lo[c] - px, px - x_hi[c]});
    const double dy = std::max({0.0, y_lo[c] - py, py - y_hi[c]});
    return certified_floor(dx * dx + dy * dy, np + max_norm[c]);
  }

  /// Lower bound on every d² the kernel forms from p, filed in cell c, to
  /// a point of any cell r or more rings from c (r ≥ 1): such a cell lies
  /// r or more columns or rows away, beyond the nearest of four extents.
  [[nodiscard]] double ring_floor(double px, double py, double np,
                                  std::size_t c, std::size_t r) const {
    const std::size_t i = c % nx;
    const std::size_t j = c / nx;
    double sq = kInf;
    const auto gap = [&sq](double g) { sq = std::min(sq, g * g); };
    if (i + r < nx) gap(x_from[i + r] - px);
    if (i >= r) gap(px - x_upto[i - r]);
    if (j + r < ny) gap(y_from[j + r] - py);
    if (j >= r) gap(py - y_upto[j - r]);
    return certified_floor(sq, np + top_norm);
  }

  /// out[t] = d² from p to the point in slot b + t, t < out.size().
  void sq_dists(double px, double py, double np, std::size_t b,
                std::span<double> out) const {
    detail::sq_dist_row_2d(px, py, np, &xs[b], &ys[b], &norms[b], out);
  }

  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t largest = 0;  ///< most points filed in one cell
  double top_norm = 0.0;    ///< largest ‖q‖² of all
  // By slot.
  std::span<double> xs, ys, norms;
  std::span<std::size_t> index;  ///< the point a slot holds
  // By point index.
  std::span<std::size_t> cell_of;
  // By cell. The traversal's summary of the live slots lives here too
  // (see traverse): their count, largest reachability and bound, and
  // smallest (reachability, index) with its slot.
  std::span<std::size_t> begin;  ///< cells() + 1 run starts
  std::span<std::size_t> live, min_index, min_slot;
  std::span<double> x_lo, x_hi, y_lo, y_hi;  ///< box of the points filed
  std::span<double> max_norm;                ///< largest ‖q‖² filed
  std::span<double> max_reach, max_bound, min_reach;
  // By column (row): the smallest x (y) over columns (rows) from i on and
  // the largest up to i, ±inf where there is none.
  std::span<double> x_from, x_upto, y_from, y_upto;
};

CellGrid::CellGrid(const Matrix& pts, linalg::Workspace& ws) {
  namespace wslot = linalg::wslot;
  const std::size_t n = pts.rows();
  double x_min = kInf, x_max = -kInf, y_min = kInf, y_max = -kInf;
  for (std::size_t q = 0; q < n; ++q) {
    x_min = std::min(x_min, pts(q, 0));
    x_max = std::max(x_max, pts(q, 0));
    y_min = std::min(y_min, pts(q, 1));
    y_max = std::max(y_max, pts(q, 1));
  }
  const std::size_t target = std::max<std::size_t>(1, n / kPointsPerCell);
  const double width = x_max - x_min;
  const double height = y_max - y_min;
  if (width > 0.0 && height > 0.0) {
    // nx : ny as width : height with nx·ny ≈ target. An overflowed extent
    // makes the ratio +inf, 0 or NaN, which the clamps take to one line.
    const double across =
        std::sqrt(static_cast<double>(target) * (width / height));
    nx = across >= static_cast<double>(target) ? target
         : across >= 1.0 ? static_cast<std::size_t>(across + 0.5)
                         : 1;
    ny = std::max<std::size_t>(1, (target + nx / 2) / nx);
  } else if (width > 0.0) {
    nx = target;
  } else if (height > 0.0) {
    ny = target;
  }
  // The scales stay finite, so a zero extent (scale kMax, offsets 0)
  // files every point into line 0; a product at or above the line count,
  // or NaN from an overflowed offset times scale 0, files into the last.
  // Either way a line never falls as its coordinate grows.
  constexpr double kMax = std::numeric_limits<double>::max();
  const double x_scale = std::min(static_cast<double>(nx) / width, kMax);
  const double y_scale = std::min(static_cast<double>(ny) / height, kMax);
  const auto line = [](double offset, double scale, std::size_t lines) {
    const double t = offset * scale;
    return t < static_cast<double>(lines) ? static_cast<std::size_t>(t)
                                          : lines - 1;
  };

  const std::size_t count = cells();
  const std::span<std::size_t> runs =
      ws.idx(wslot::kOpticsCellRuns, 4 * count + 1);
  begin = runs.first(count + 1);
  live = runs.subspan(count + 1, count);
  min_index = runs.subspan(2 * count + 1, count);
  min_slot = runs.subspan(3 * count + 1, count);
  cell_of = ws.idx(wslot::kOpticsFiling, n);
  std::fill(begin.begin(), begin.end(), std::size_t{0});
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t c = line(pts(q, 1) - y_min, y_scale, ny) * nx +
                          line(pts(q, 0) - x_min, x_scale, nx);
    cell_of[q] = c;
    ++begin[c + 1];
  }
  for (std::size_t c = 0; c < count; ++c) {
    largest = std::max(largest, begin[c + 1]);
    begin[c + 1] += begin[c];
  }

  // Fill the runs in index order; live[] is the cursor here.
  Matrix& coords = ws.mat(wslot::kOpticsCols, 2, n);
  xs = coords.row(0);
  ys = coords.row(1);
  norms = ws.vec(wslot::kOpticsNorms, n);
  index = ws.idx(wslot::kOpticsIndex, n);
  std::copy(begin.begin(), begin.end() - 1, live.begin());
  for (std::size_t q = 0; q < n; ++q) {
    const std::size_t s = live[cell_of[q]]++;
    xs[s] = pts(q, 0);
    ys[s] = pts(q, 1);
    norms[s] = linalg::norm2_squared(pts.row(q));  // as embed::row_sq_norms
    index[s] = q;
    top_norm = std::max(top_norm, norms[s]);
  }

  const std::span<double> stats =
      ws.vec(wslot::kOpticsCells, 8 * count + 2 * (nx + ny));
  const auto carve = [&stats](std::size_t at, std::size_t len) {
    return stats.subspan(at, len);
  };
  x_lo = carve(0, count);
  x_hi = carve(count, count);
  y_lo = carve(2 * count, count);
  y_hi = carve(3 * count, count);
  max_norm = carve(4 * count, count);
  max_reach = carve(5 * count, count);
  max_bound = carve(6 * count, count);
  min_reach = carve(7 * count, count);
  x_from = carve(8 * count, nx);
  x_upto = carve(8 * count + nx, nx);
  y_from = carve(8 * count + 2 * nx, ny);
  y_upto = carve(8 * count + 2 * nx + ny, ny);
  std::fill(x_from.begin(), x_from.end(), kInf);
  std::fill(x_upto.begin(), x_upto.end(), -kInf);
  std::fill(y_from.begin(), y_from.end(), kInf);
  std::fill(y_upto.begin(), y_upto.end(), -kInf);
  for (std::size_t c = 0; c < count; ++c) {
    x_lo[c] = y_lo[c] = kInf;
    x_hi[c] = y_hi[c] = -kInf;
    max_norm[c] = 0.0;
    for (std::size_t s = begin[c]; s < begin[c + 1]; ++s) {
      x_lo[c] = std::min(x_lo[c], xs[s]);
      x_hi[c] = std::max(x_hi[c], xs[s]);
      y_lo[c] = std::min(y_lo[c], ys[s]);
      y_hi[c] = std::max(y_hi[c], ys[s]);
      max_norm[c] = std::max(max_norm[c], norms[s]);
    }
    const std::size_t i = c % nx;
    const std::size_t j = c / nx;
    x_from[i] = std::min(x_from[i], x_lo[c]);
    x_upto[i] = std::max(x_upto[i], x_hi[c]);
    y_from[j] = std::min(y_from[j], y_lo[c]);
    y_upto[j] = std::max(y_upto[j], y_hi[c]);
  }
  for (std::size_t i = nx - 1; i-- > 0;) {
    x_from[i] = std::min(x_from[i], x_from[i + 1]);
  }
  for (std::size_t i = 1; i < nx; ++i) {
    x_upto[i] = std::max(x_upto[i], x_upto[i - 1]);
  }
  for (std::size_t j = ny - 1; j-- > 0;) {
    y_from[j] = std::min(y_from[j], y_from[j + 1]);
  }
  for (std::size_t j = 1; j < ny; ++j) {
    y_upto[j] = std::max(y_upto[j], y_upto[j - 1]);
  }
}

/// Inserts d into best[0, filled), ascending, keeping the best.size()
/// smallest values: embed::select_k's sorted insertion without the index.
void insert_smallest(std::span<double> best, std::size_t& filled, double d) {
  const std::size_t k = best.size();
  if (filled == k && d >= best[k - 1]) return;
  std::size_t pos = filled < k ? filled : k - 1;
  while (pos > 0 && best[pos - 1] > d) {
    best[pos] = best[pos - 1];
    --pos;
  }
  best[pos] = d;
  if (filled < k) ++filled;
}

/// The k-th smallest d² (k = best.size()) from the point in slot s to every
/// other point: the value embed::select_k leaves at best[k − 1] over that
/// point's full row. The cells are searched ring by ring around the
/// point's own, each with the kernel over its run and the same sorted
/// insertion. A cell whose floor is not below the k-th value so far is
/// passed over, and the search stops once the ring floor says that no
/// cell left is. The k-th smallest value of a multiset does not depend on
/// the order its values arrive in, and values at or above it cannot change
/// it, so this is the full row's value bit for bit. `formed` counts the d².
double kth_sq_dist(const CellGrid& grid, std::size_t s, std::span<double> best,
                   std::span<double> d2, long& formed) {
  const std::size_t k = best.size();
  const double px = grid.xs[s];
  const double py = grid.ys[s];
  const double np = grid.norms[s];
  const std::size_t home = grid.cell_of[grid.index[s]];
  std::size_t filled = 0;
  const std::size_t last = grid.last_ring(home);
  for (std::size_t r = 0; r <= last; ++r) {
    if (filled == k && grid.ring_floor(px, py, np, home, r) >= best[k - 1]) {
      break;
    }
    grid.for_each_ring_cell(home, r, [&](std::size_t c) {
      const std::size_t b = grid.begin[c];
      const std::size_t len = grid.begin[c + 1] - b;
      if (len == 0) return;
      if (filled == k && grid.cell_floor(px, py, np, c) >= best[k - 1]) {
        return;
      }
      grid.sq_dists(px, py, np, b, d2.first(len));
      formed += static_cast<long>(len);
      for (std::size_t t = 0; t < len; ++t) {
        if (b + t != s) insert_smallest(best, filled, d2[t]);
      }
    });
  }
  return best[k - 1];
}

/// core[p] = square root of the k-th smallest d²(p, q) over q ≠ p, for
/// every p. Each core distance depends only on its own row of d², so the
/// points split into bands that run on the shared pool, each band with its
/// own scratch; the result is the same bits at any pool size. sqrt is
/// correctly rounded and monotone, so this is the k-th smallest distance,
/// bit for bit. On the grid a band is a range of slots, whose points lie
/// cell by cell, and each row is searched by kth_sq_dist; otherwise each
/// row is formed in full and selected from with embed::select_k.
void core_pass(const CellGrid& grid, std::size_t k, bool allow_parallel,
               std::span<double> core) {
  const std::size_t n = grid.size();
  parallel::for_bands(pass_pool(n, allow_parallel), n, [&](std::size_t s0,
                                                          std::size_t s1) {
    std::vector<double> d2(grid.largest);
    std::vector<double> best(k);
    long formed = 0;
    for (std::size_t s = s0; s < s1; ++s) {
      core[grid.index[s]] = std::sqrt(kth_sq_dist(grid, s, best, d2, formed));
    }
    sq_dist_count().add(formed);
  });
}

void core_pass(const PointSet& set, std::size_t k, bool allow_parallel,
               std::span<double> core) {
  const Matrix& pts = set.points;
  const std::size_t n = pts.rows();
  parallel::for_bands(pass_pool(n, allow_parallel), n, [&](std::size_t p0,
                                                          std::size_t p1) {
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
    sq_dist_count().add(static_cast<long>((p1 - p0) * n));
  });
}

/// Phase two on the grid: the visit order of Ankerst et al., each cell's
/// live slots compacted at the front of its run. Each slot holds its
/// reachability and that reachability's sq_bound, which starts at the
/// sq_bound just above max_eps: a d² there has a square root beyond
/// max_eps and lowers nothing. Each cell keeps a summary of its live
/// slots: the largest reachability and bound and the smallest
/// (reachability, index). Visiting a point swap-removes its slot. The
/// visit then lowers reachabilities through the visited point p, of core
/// distance core, in the cells that can hold a change: a cell is passed
/// over when core is not below its largest reachability (no
/// core < reach; always so for a non-core p), or when its floor is not
/// below its largest bound (no d² < bound, which also covers max_eps).
/// Elsewhere the kernel forms the cell's d², each slot takes the update
/// every width runs, and the same pass sums the cell up again. The scan
/// over the cells also picks the next point: the lexicographically
/// smallest (reachability, index) over the cells' own smallest, +inf
/// included. That is the entry a lazy-deletion min-heap of (reachability,
/// index) pops next and, when no reachability is finite, the outer loop's
/// restart at the smallest unvisited index.
void traverse(CellGrid& grid, const OpticsConfig& config,
              linalg::Workspace& ws, OpticsResult& result) {
  const std::size_t n = grid.size();
  const std::span<double> reach = ws.vec(linalg::wslot::kOpticsReach, n);
  const std::span<double> bound = ws.vec(linalg::wslot::kOpticsBound, n);
  const std::span<double> d2 =
      ws.vec(linalg::wslot::kOpticsGram, grid.largest);
  const double eps_bound = sq_bound(std::nextafter(config.max_eps, kInf));
  std::fill(reach.begin(), reach.end(), kInf);
  std::fill(bound.begin(), bound.end(), eps_bound);

  // A cell's summary of its live slots, gathered slot by slot. An empty
  // cell sums up to (+inf, n), which every live cell precedes, and to a
  // largest reachability of 0, which no core distance is below.
  struct Summary {
    double top_reach = 0.0;
    double top_bound = 0.0;
    double low_reach = kInf;
    std::size_t low_index = 0;
    std::size_t low_slot = 0;

    void add(double r, double b, std::size_t q, std::size_t slot) {
      top_reach = std::max(top_reach, r);
      top_bound = std::max(top_bound, b);
      if (r < low_reach || (r == low_reach && q < low_index)) {
        low_reach = r;
        low_index = q;
        low_slot = slot;
      }
    }
  };
  const auto store = [&grid](std::size_t c, const Summary& m) {
    grid.max_reach[c] = m.top_reach;
    grid.max_bound[c] = m.top_bound;
    grid.min_reach[c] = m.low_reach;
    grid.min_index[c] = m.low_index;
    grid.min_slot[c] = m.low_slot;
  };
  const auto summarise = [&](std::size_t c) {
    const std::size_t b = grid.begin[c];
    Summary m{.low_index = n, .low_slot = b};
    for (std::size_t i = b; i < b + grid.live[c]; ++i) {
      m.add(reach[i], bound[i], grid.index[i], i);
    }
    store(c, m);
  };
  const auto precedes = [&grid](std::size_t a, std::size_t b) {
    return grid.min_reach[a] < grid.min_reach[b] ||
           (grid.min_reach[a] == grid.min_reach[b] &&
            grid.min_index[a] < grid.min_index[b]);
  };
  std::size_t next = 0;
  for (std::size_t c = 0; c < grid.cells(); ++c) {
    grid.live[c] = grid.begin[c + 1] - grid.begin[c];
    summarise(c);
    if (precedes(c, next)) next = c;
  }

  const double max_eps = config.max_eps;
  long formed = 0;
  for (std::size_t remaining = n;;) {
    const std::size_t cell = next;
    const std::size_t s = grid.min_slot[cell];
    const std::size_t p = grid.index[s];
    result.order.push_back(p);
    result.reachability[p] = reach[s];
    const double px = grid.xs[s];
    const double py = grid.ys[s];
    const double np = grid.norms[s];
    const std::size_t last = grid.begin[cell] + --grid.live[cell];
    grid.xs[s] = grid.xs[last];
    grid.ys[s] = grid.ys[last];
    grid.norms[s] = grid.norms[last];
    grid.index[s] = grid.index[last];
    reach[s] = reach[last];
    bound[s] = bound[last];
    if (--remaining == 0) break;
    summarise(cell);

    const double core = result.core_distance[p];
    for (std::size_t c = 0; c < grid.cells(); ++c) {
      if (core < grid.max_reach[c] &&
          grid.cell_floor(px, py, np, c) < grid.max_bound[c]) {
        const std::size_t b = grid.begin[c];
        const std::size_t len = grid.live[c];
        grid.sq_dists(px, py, np, b, d2.first(len));
        formed += static_cast<long>(len);
        Summary m{.low_index = n, .low_slot = b};
        for (std::size_t t = 0; t < len; ++t) {
          const std::size_t i = b + t;
          if (core < reach[i] && d2[t] < bound[i]) {
            const double dist = std::sqrt(d2[t]);
            if (dist <= max_eps) {
              reach[i] = std::min(reach[i], std::max(core, dist));
              bound[i] = sq_bound(reach[i]);
            }
          }
          m.add(reach[i], bound[i], grid.index[i], i);
        }
        store(c, m);
      }
      if (precedes(c, next)) next = c;
    }
  }
  sq_dist_count().add(formed);
}

/// Phase two at every other width: the same visit order over one compacted
/// live set. Slot i holds unvisited point index[i] with its reachability
/// and that reachability's sq_bound (and, with use_gemm, its norm and its
/// coordinates in column i of cols); visiting a point swap-removes its
/// slot. Each visit lowers the live reachabilities through the visited
/// point p. That is possible only where core(p) < reach(q), so only there
/// is d² formed, and only where d² is below the bound is its square root
/// taken. The same pass picks the next point, as on the grid.
void traverse(PointSet& set, const OpticsConfig& config,
              linalg::Workspace& ws, OpticsResult& result) {
  const Matrix& points = set.points;
  const std::size_t n = points.rows();
  const std::span<std::size_t> index =
      ws.idx(linalg::wslot::kOpticsIndex, n);
  const std::span<double> reach = ws.vec(linalg::wslot::kOpticsReach, n);
  const std::span<double> bound = ws.vec(linalg::wslot::kOpticsBound, n);
  const std::span<double> gram = ws.vec(linalg::wslot::kOpticsGram, n);
  std::iota(index.begin(), index.end(), std::size_t{0});
  std::fill(reach.begin(), reach.end(), kInf);
  std::fill(bound.begin(), bound.end(), kInf);
  const std::size_t d = points.cols();
  long formed = 0;
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
          ++formed;
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
  sq_dist_count().add(formed);
}

/// Both phases over one point set. Phase one: every core distance, up
/// front. The point itself counts toward min_pts, as in the original
/// paper, so the core distance is the (min_pts−1)-th nearest other point,
/// and +inf beyond max_eps. Phase two: the traversal.
template <class Set>
void run_optics(Set& set, const OpticsConfig& config, bool allow_parallel,
                linalg::Workspace& ws, OpticsResult& result) {
  static obs::Histogram& core_dist_seconds =
      obs::metrics().histogram("cluster.core_dist_seconds");
  Stopwatch timer;
  core_pass(set, config.min_pts - 1, allow_parallel, result.core_distance);
  for (double& core : result.core_distance) {
    if (!(core <= config.max_eps)) core = kInf;
  }
  core_dist_seconds.observe(timer.seconds());
  traverse(set, config, ws, result);
}

bool on_grid(const Matrix& points, const embed::DistanceOptions& opts) {
  return opts.use_gemm && points.cols() == 2;
}

}  // namespace

std::vector<double> core_distances(const Matrix& points, std::size_t k,
                                   const embed::DistanceOptions& opts) {
  ARAMS_CHECK(k >= 1 && k < points.rows(),
              "core distances need 1 <= k < n (got k=" + std::to_string(k) +
                  ", n=" + std::to_string(points.rows()) + ")");
  embed::check_finite(points, "cluster::core_distances");
  linalg::Workspace ws;
  std::vector<double> core(points.rows());
  if (on_grid(points, opts)) {
    core_pass(CellGrid(points, ws), k, opts.allow_parallel, core);
  } else {
    core_pass(PointSet(points, opts, ws), k, opts.allow_parallel, core);
  }
  return core;
}

OpticsResult optics(const Matrix& points, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts) {
  const std::size_t n = points.rows();
  ARAMS_CHECK(n >= 2, "OPTICS needs at least two points");
  ARAMS_CHECK(config.min_pts >= 2 && config.min_pts <= n,
              "min_pts out of range");
  embed::check_finite(points, "cluster::optics");

  OpticsResult result;
  result.order.reserve(n);
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);
  if (on_grid(points, opts)) {
    CellGrid grid(points, ws);
    run_optics(grid, config, opts.allow_parallel, ws, result);
  } else {
    PointSet set(points, opts, ws);
    run_optics(set, config, opts.allow_parallel, ws, result);
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
