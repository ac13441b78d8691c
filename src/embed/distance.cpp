#include "embed/distance.hpp"

#include <cmath>
#include <string>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace arams::embed {

using linalg::Matrix;
using linalg::MatrixView;

double sq_dist(std::span<const double> a, std::span<const double> b) {
  ARAMS_DCHECK(a.size() == b.size(), "sq_dist size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void check_finite(MatrixView rows, const char* what) {
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const std::span<const double> row = rows.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (!std::isfinite(row[j])) {
        ARAMS_CHECK(false, std::string(what) + ": non-finite value " +
                               std::to_string(row[j]) + " at row " +
                               std::to_string(i) + ", column " +
                               std::to_string(j));
      }
    }
  }
}

void row_sq_norms(MatrixView a, std::span<double> out) {
  ARAMS_CHECK(out.size() == a.rows(), "row_sq_norms size mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    out[i] = linalg::norm2_squared(a.row(i));
  }
}

void gather_rows(MatrixView src, std::span<const std::size_t> idx,
                 Matrix& out) {
  out.reshape(idx.size(), src.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    ARAMS_DCHECK(idx[i] < src.rows(), "gather_rows index out of range");
    out.set_row(i, src.row(idx[i]));
  }
}

namespace {

// Output blocks with at least this many elements fan the rank-1 fix-up out
// as row bands across the shared pool. Each element is three flops; below
// this the dispatch overhead dominates.
constexpr std::size_t kElementParallelThreshold = std::size_t{1} << 18;

parallel::ThreadPool* fixup_pool(std::size_t elements,
                                 const DistanceOptions& opts) {
  if (!opts.allow_parallel || elements < kElementParallelThreshold) {
    return nullptr;
  }
  parallel::ThreadPool& pool = parallel::shared_pool();
  return pool.thread_count() >= 2 ? &pool : nullptr;
}

/// Naive reference: per-pair scalar differences, bitwise-identical to the
/// historical consumer loops.
void pairwise_naive(MatrixView x, MatrixView y, Matrix& out) {
  out.reshape(x.rows(), y.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto xi = x.row(i);
    double* dst = out.data() + i * y.rows();
    for (std::size_t j = 0; j < y.rows(); ++j) {
      dst[j] = sq_dist(xi, y.row(j));
    }
  }
}

void pairwise_gemm(MatrixView x, MatrixView y,
                   std::span<const double> x_sq_norms,
                   std::span<const double> y_sq_norms, Matrix& out,
                   const DistanceOptions& opts) {
  // G = X·Yᵀ straight into the output block, then the rank-1 fix-up
  // d² = ‖x‖² + ‖y‖² − 2g in place. The fix-up is per-element independent,
  // so band partitioning cannot change results.
  pairwise_gram(x, y, out);
  const std::size_t m = x.rows();
  const std::size_t n = y.rows();
  parallel::for_bands(fixup_pool(m * n, opts), m, [&](std::size_t i0,
                                                      std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const double xn = x_sq_norms[i];
      double* row = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = gram_sq_dist(xn, y_sq_norms[j], row[j]);
      }
    }
  });
}

}  // namespace

void pairwise_gram(MatrixView x, MatrixView y, Matrix& out) {
  ARAMS_CHECK(x.cols() == y.cols(), "pairwise dimension mismatch");
  static obs::Counter& gemm_blocks =
      obs::metrics().counter("embed.distance_gemm_count");
  gemm_blocks.add(1);
  linalg::matmul_nt(x, y, out);
}

void pairwise_sq_dists_prenormed(MatrixView x, MatrixView y,
                                 std::span<const double> x_sq_norms,
                                 std::span<const double> y_sq_norms,
                                 linalg::Workspace& ws, Matrix& out,
                                 const DistanceOptions& opts) {
  ARAMS_CHECK(x.cols() == y.cols(), "pairwise dimension mismatch");
  ARAMS_CHECK(x_sq_norms.size() == x.rows() && y_sq_norms.size() == y.rows(),
              "pairwise norm length mismatch");
  (void)ws;  // reserved for future packed scratch; keeps call sites uniform
  if (!opts.use_gemm) {
    pairwise_naive(x, y, out);
    return;
  }
  pairwise_gemm(x, y, x_sq_norms, y_sq_norms, out, opts);
}

void pairwise_sq_dists(MatrixView x, MatrixView y, linalg::Workspace& ws,
                       Matrix& out, const DistanceOptions& opts) {
  ARAMS_CHECK(x.cols() == y.cols(), "pairwise dimension mismatch");
  if (!opts.use_gemm) {
    pairwise_naive(x, y, out);
    return;
  }
  const auto xn = ws.vec(linalg::wslot::kDistXNorms, x.rows());
  row_sq_norms(x, xn);
  // Self-products share one norm vector (the common kNN case x == y).
  if (x.data() == y.data() && x.rows() == y.rows()) {
    pairwise_gemm(x, y, xn, xn, out, opts);
    return;
  }
  const auto yn = ws.vec(linalg::wslot::kDistYNorms, y.rows());
  row_sq_norms(y, yn);
  pairwise_gemm(x, y, xn, yn, out, opts);
}

}  // namespace arams::embed
