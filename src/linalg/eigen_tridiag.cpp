// The symmetric eigensolver behind eigen_symmetric(): blocked Householder
// tridiagonalization (dsytrd/dlatrd-style panels) + implicit
// Wilkinson-shift QL iteration on the tridiagonal (dsteqr-style) +
// Householder back-transformation of the retained eigenvector prefix.
//
// Shape of the computation, for an n×n symmetric input:
//  1. Reduce A to tridiagonal T = Qᵀ·A·Q. Panels of kPanel columns are
//     factored dlatrd-style: each column's reflector is generated against
//     the *unupdated* trailing matrix plus V/W correction terms, and the
//     accumulated rank-2·nb update A ← A − V·Wᵀ − W·Vᵀ is applied to the
//     trailing block once per panel through matmul_nt — i.e. through the
//     packed, register-blocked, thread-pool-parallel GEMM core — so about
//     half the reduction's ~(4/3)n³ flops run at Level-3 speed.
//  2. Diagonalize T by implicit QL with Wilkinson shifts and deflation.
//     With eigenvectors, plane rotations accumulate into Z (O(n³) but with
//     a tiny constant); eigenvalues-only skips Z for an O(n²) total.
//  3. Back-transform only the eigenvectors the caller keeps:
//     out.vectors = Q·Z[:, top-k]. FD's shrink discards directions with
//     σᵢ² ≤ δ, so k ≤ ℓ of the 2ℓ columns — the reflector applications
//     stop at the retained prefix instead of rotating everything.
//
// All scratch lives in wslot::kTrd* workspace slots; steady-state calls
// perform zero heap allocations (covered by tests/test_workspace.cpp).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>

#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace arams::linalg {

namespace {

/// dlatrd panel width. Big enough that the trailing GEMM dominates the
/// panel's Level-2 work, small enough that the V/W correction loops stay
/// L1-resident at FD sizes.
constexpr std::size_t kPanel = 32;

/// Generates the Householder reflector annihilating wm[j+2:n, j]:
/// H = I − tau·v·vᵀ with v[j+1] = 1, v[j+2:n] stored in-place in column j.
/// Returns tau (0 when the column is already reduced) and writes the
/// resulting subdiagonal value to `beta`.
double householder_column(Matrix& wm, std::size_t n, std::size_t j,
                          double& beta) {
  const double alpha = wm(j + 1, j);
  double xnorm2 = 0.0;
  for (std::size_t r = j + 2; r < n; ++r) {
    xnorm2 += wm(r, j) * wm(r, j);
  }
  if (xnorm2 == 0.0) {
    beta = alpha;
    wm(j + 1, j) = 1.0;
    return 0.0;
  }
  const double norm = std::sqrt(alpha * alpha + xnorm2);
  beta = (alpha >= 0.0) ? -norm : norm;
  const double tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (std::size_t r = j + 2; r < n; ++r) {
    wm(r, j) *= inv;
  }
  wm(j + 1, j) = 1.0;  // explicit unit so panel math and Q·S reads need no
                       // special case; the true subdiagonal lives in e[j]
  return tau;
}

/// Blocked reduction of the symmetrized matrix in `wm` to tridiagonal form.
/// On return: d/e hold the tridiagonal, tau the reflector scales, and the
/// reflector vectors sit below the subdiagonal of wm (unit entries
/// explicit). Full (symmetric) storage is maintained for the trailing
/// block so the per-column matvec streams contiguous rows.
void tridiagonalize(Matrix& wm, std::size_t n, std::span<double> d,
                    std::span<double> e, std::span<double> tau,
                    Workspace& ws) {
  std::span<double> vc = ws.vec(wslot::kTrdScratch, n);
  std::span<double> wv = ws.vec(wslot::kTrdScratch2, n);
  std::size_t k = 0;
  while (k + 1 < n) {
    const std::size_t nb = std::min(kPanel, n - 1 - k);
    Matrix& vp = ws.mat(wslot::kTrdPanelV, n, nb);
    Matrix& wp = ws.mat(wslot::kTrdPanelW, n, nb);
    for (std::size_t i = 0; i < nb; ++i) {
      const std::size_t j = k + i;
      // Apply the panel's pending rank-2 updates to column j only; the
      // trailing block is updated once per panel below.
      if (i > 0) {
        for (std::size_t r = j; r < n; ++r) {
          const auto vrow = vp.row(r);
          const auto wrow = wp.row(r);
          double acc = 0.0;
          for (std::size_t c = 0; c < i; ++c) {
            acc += vrow[c] * wp(j, c) + wrow[c] * vp(j, c);
          }
          wm(r, j) -= acc;
        }
      }
      d[j] = wm(j, j);

      const double t = householder_column(wm, n, j, e[j]);
      tau[j] = t;
      for (std::size_t r = j + 1; r < n; ++r) {
        vc[r] = wm(r, j);
      }

      // w = tau·(A − V·Wᵀ − W·Vᵀ)·v, computed as the unupdated-A matvec
      // plus panel correction terms (the dlatrd identity), then the
      // symmetric normalization w −= (tau/2)(wᵀv)·v.
      const std::size_t tail = n - j - 1;
      const auto vtail = vc.subspan(j + 1, tail);
      for (std::size_t r = j + 1; r < n; ++r) {
        wv[r] = dot(wm.row(r).subspan(j + 1, tail), vtail);
      }
      if (i > 0) {
        double p1[kPanel] = {0.0};  // Wᵀ·v
        double p2[kPanel] = {0.0};  // Vᵀ·v
        for (std::size_t r = j + 1; r < n; ++r) {
          const double vr = vc[r];
          const auto vrow = vp.row(r);
          const auto wrow = wp.row(r);
          for (std::size_t c = 0; c < i; ++c) {
            p1[c] += wrow[c] * vr;
            p2[c] += vrow[c] * vr;
          }
        }
        for (std::size_t r = j + 1; r < n; ++r) {
          const auto vrow = vp.row(r);
          const auto wrow = wp.row(r);
          double acc = 0.0;
          for (std::size_t c = 0; c < i; ++c) {
            acc += vrow[c] * p1[c] + wrow[c] * p2[c];
          }
          wv[r] -= acc;
        }
      }
      double wtv = 0.0;
      for (std::size_t r = j + 1; r < n; ++r) {
        wv[r] *= t;
        wtv += wv[r] * vc[r];
      }
      const double corr = -0.5 * t * wtv;
      for (std::size_t r = 0; r < n; ++r) {
        const bool live = r > j;
        vp(r, i) = live ? vc[r] : 0.0;
        wp(r, i) = live ? wv[r] + corr * vc[r] : 0.0;
      }
    }

    // Rank-2·nb trailing update A ← A − V·Wᵀ − (V·Wᵀ)ᵀ through the packed
    // GEMM core (rows_of views skip the zero panel-region rows).
    const std::size_t kk = k + nb;
    if (kk < n) {
      const MatrixView vt = MatrixView::rows_of(vp, kk, n);
      const MatrixView wt = MatrixView::rows_of(wp, kk, n);
      Matrix& upd = ws.mat(wslot::kTrdUpdate, n - kk, n - kk);
      matmul_nt(vt, wt, upd);
      const std::size_t t2 = n - kk;
      for (std::size_t r = 0; r < t2; ++r) {
        auto dst = wm.row(kk + r);
        const auto urow = upd.row(r);
        for (std::size_t c = 0; c < t2; ++c) {
          dst[kk + c] -= urow[c] + upd(c, r);
        }
      }
    }
    k = kk;
  }
  d[n - 1] = wm(n - 1, n - 1);
}

/// Implicit Wilkinson-shift QL with deflation on the tridiagonal (d, e)
/// where e[i] couples rows i and i+1 (e[n-1] unused). When z is non-null
/// the plane rotations accumulate into its columns. Returns the number of
/// shift iterations taken. The standard dsteqr/tql2 recurrence.
int ql_implicit(std::span<double> d, std::span<double> e, std::size_t n,
                Matrix* z) {
  if (n <= 1) return 0;
  e[n - 1] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  int total_iters = 0;
  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    while (true) {
      // Deflation scan: the first negligible coupling at or above l.
      std::size_t m = l;
      while (m + 1 < n) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= eps * dd) break;
        ++m;
      }
      if (m == l) break;  // d[l] converged
      ARAMS_CHECK(++iter <= 80, "tridiagonal QL failed to converge");
      ++total_iters;

      // Wilkinson shift from the leading 2×2, folded into the chase.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (std::size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Rotation annihilated early: split the problem and restart.
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        if (z != nullptr) {
          Matrix& zz = *z;
          const std::size_t rows = zz.rows();
          for (std::size_t row = 0; row < rows; ++row) {
            auto zr = zz.row(row);
            f = zr[i + 1];
            zr[i + 1] = s * zr[i] + c * f;
            zr[i] = c * zr[i] - s * f;
          }
        }
      }
      if (!underflow) {
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    }
  }
  return total_iters;
}

void tridiag_eigen(MatrixView a, Workspace& ws, SymmetricEig& out,
                   const EigenConfig& config) {
  ARAMS_CHECK(a.rows() == a.cols(), "eigensolver needs a square matrix");
  ARAMS_CHECK(a.rows() > 0, "eigensolver needs a non-empty matrix");
  const std::size_t n = a.rows();
  const bool want_vectors = config.vectors && config.max_vectors > 0;
  const std::size_t keep = want_vectors ? std::min(config.max_vectors, n) : 0;

  // Symmetrized working copy; Gram products carry ~eps asymmetry.
  Matrix& wm = ws.mat(wslot::kTrdWork, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      wm(i, j) = 0.5 * (a(i, j) + a(j, i));
    }
  }

  if (n == 1) {
    out.values.resize(1);
    out.values[0] = wm(0, 0);
    out.iterations = 0;
    out.vectors.reshape(want_vectors ? 1 : 0, want_vectors ? 1 : 0);
    if (want_vectors) out.vectors(0, 0) = 1.0;
    return;
  }

  const std::span<double> d = ws.vec(wslot::kTrdDiag, n);
  const std::span<double> e = ws.vec(wslot::kTrdOff, n);
  const std::span<double> tau = ws.vec(wslot::kTrdTau, n);
  tridiagonalize(wm, n, d, e, tau, ws);

  Matrix* zp = nullptr;
  if (want_vectors) {
    Matrix& z = ws.mat(wslot::kTrdZ, n, n);
    z.fill(0.0);
    for (std::size_t i = 0; i < n; ++i) z(i, i) = 1.0;
    zp = &z;
  }
  out.iterations = ql_implicit(d, e, n, zp);

  // Sort descending (indirect, so Z columns are gathered once).
  const std::span<std::size_t> order = ws.idx(wslot::kEigOrder, n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.values[i] = d[order[i]];
  }

  if (!want_vectors) {
    out.vectors.reshape(0, 0);
    return;
  }

  // Gather the retained prefix of tridiagonal eigenvectors, then
  // back-transform: out.vectors = Q·Z_kept with Q = H₀·H₁···H_{n−2}
  // applied last-to-first. Cost 2n²·keep, vs 2n³ for all columns.
  out.vectors.reshape(n, keep);
  for (std::size_t c = 0; c < keep; ++c) {
    const std::size_t src = order[c];
    for (std::size_t r = 0; r < n; ++r) {
      out.vectors(r, c) = (*zp)(r, src);
    }
  }
  const std::span<double> acc = ws.vec(wslot::kTrdScratch, keep);
  for (std::size_t j = n - 1; j-- > 0;) {
    const double t = tau[j];
    if (t == 0.0) continue;
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t r = j + 1; r < n; ++r) {
      axpy(wm(r, j), out.vectors.row(r), acc);  // acc = vᵀ·M
    }
    for (std::size_t r = j + 1; r < n; ++r) {
      axpy(-t * wm(r, j), acc, out.vectors.row(r));  // M −= tau·v·acc
    }
  }
}

}  // namespace

void eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                     const EigenConfig& config) {
  Stopwatch timer;
  tridiag_eigen(a, ws, out, config);
  // Resolved once; per-call cost is two relaxed atomic observes.
  static obs::Histogram& seconds =
      obs::metrics().histogram("linalg.eig_seconds");
  static constexpr double kIterBounds[] = {1,  2,   4,   8,   16,  32,
                                           64, 128, 256, 512, 1024, 4096};
  static obs::Histogram& iterations =
      obs::metrics().histogram("linalg.eig_iterations", kIterBounds);
  seconds.observe(timer.seconds());
  iterations.observe(static_cast<double>(out.iterations));
}

SymmetricEig eigen_symmetric(const Matrix& a, const EigenConfig& config) {
  Workspace ws;
  SymmetricEig out;
  eigen_symmetric(MatrixView(a), ws, out, config);
  return out;
}

}  // namespace arams::linalg
