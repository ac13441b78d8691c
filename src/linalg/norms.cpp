#include "linalg/norms.hpp"

#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/workspace.hpp"

namespace arams::linalg {

double spectral_norm_sym(
    const std::function<void(std::span<const double>, std::span<double>)>&
        matvec,
    std::size_t dim, Rng& rng, int iters) {
  ARAMS_CHECK(dim > 0, "spectral_norm_sym needs dim > 0");
  std::vector<double> x(dim);
  std::vector<double> y(dim);
  rng.fill_normal(x);
  double nrm = norm2(x);
  if (nrm == 0.0) {
    x[0] = 1.0;
    nrm = 1.0;
  }
  scale(x, 1.0 / nrm);

  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    matvec(x, y);
    // For a symmetric operator the Rayleigh quotient xᵀ(Mx) tracks the
    // dominant eigenvalue; |·| covers negative-dominant spectra.
    lambda = dot(x, y);
    const double ynorm = norm2(y);
    if (ynorm == 0.0) return 0.0;  // operator annihilated the iterate
    for (std::size_t i = 0; i < dim; ++i) {
      x[i] = y[i] / ynorm;
    }
    // |lambda| converges to ‖M‖₂ when the dominant eigenvalue dominates in
    // magnitude; the final ynorm is the safer estimate, keep the max.
    lambda = std::max(std::abs(lambda), ynorm);
  }
  return std::abs(lambda);
}

double spectral_norm(const Matrix& a, Rng& rng, int iters) {
  const std::size_t d = a.cols();
  std::vector<double> tmp(a.rows());
  const auto matvec = [&](std::span<const double> x, std::span<double> y) {
    gemv(a, x, tmp);
    gemv_t(a, tmp, y);
  };
  const double lam = spectral_norm_sym(matvec, d, rng, iters);
  return std::sqrt(std::max(lam, 0.0));
}

double covariance_error(const Matrix& a, const Matrix& b, Rng& rng,
                        int iters) {
  ARAMS_CHECK(a.cols() == b.cols(), "covariance_error column mismatch");
  const std::size_t d = a.cols();
  std::vector<double> ta(a.rows());
  std::vector<double> tb(b.rows());
  std::vector<double> yb(d);
  const auto matvec = [&](std::span<const double> x, std::span<double> y) {
    gemv(a, x, ta);
    gemv_t(a, ta, y);
    gemv(b, x, tb);
    gemv_t(b, tb, yb);
    for (std::size_t i = 0; i < d; ++i) {
      y[i] -= yb[i];
    }
  };
  return spectral_norm_sym(matvec, d, rng, iters);
}

double covariance_error_relative(const Matrix& a, const Matrix& b, Rng& rng,
                                 int iters) {
  const double denom = frobenius_norm_squared(a);
  ARAMS_CHECK(denom > 0.0, "relative error of a zero matrix");
  return covariance_error(a, b, rng, iters) / denom;
}

double projection_residual_exact(MatrixView x, MatrixView v) {
  return projection_residual_exact(x, v, frobenius_norm_squared(x));
}

double projection_residual_exact(MatrixView x, MatrixView v,
                                 double x_sq_norm) {
  ARAMS_CHECK(v.cols() == x.cols(), "projection basis dimension mismatch");
  // ‖X − XVᵀV‖²_F = ‖X‖²_F − ‖XVᵀ‖²_F for orthonormal rows of V.
  const Matrix coeff = matmul_nt(x, v);  // n×k
  const double captured = frobenius_norm_squared(coeff);
  return std::max(x_sq_norm - captured, 0.0);
}

double estimate_projection_residual(MatrixView x, MatrixView v, int probes,
                                    Rng& rng, Workspace& ws) {
  ARAMS_CHECK(probes > 0, "need at least one probe");
  ARAMS_CHECK(v.cols() == x.cols(), "projection basis dimension mismatch");
  const auto nu = static_cast<std::size_t>(probes);

  // G's rows are drawn probe by probe, the order a per-probe loop would
  // draw its g vectors in.
  Matrix& g = ws.mat(wslot::kProbeG, nu, x.rows());
  for (std::size_t p = 0; p < nu; ++p) rng.fill_normal(g.row(p));
  // Y = G·X: row p is Xᵀg_p, a random combination of the batch rows.
  Matrix& y = ws.mat(wslot::kProbeY, 0, 0);
  matmul(g, x, y);
  // Ŷ = (Y·Vᵀ)·V: every probe projected onto the retained subspace.
  Matrix& c = ws.mat(wslot::kProbeC, 0, 0);
  matmul_nt(y, v, c);
  Matrix& yhat = ws.mat(wslot::kProbeYhat, 0, 0);
  matmul(c, v, yhat);

  double acc = 0.0;
  for (std::size_t p = 0; p < nu; ++p) {
    const auto yp = y.row(p);
    const auto hp = yhat.row(p);
    double r = 0.0;
    for (std::size_t i = 0; i < yp.size(); ++i) {
      const double diff = yp[i] - hp[i];
      r += diff * diff;
    }
    acc += r;
  }
  return acc / probes;
}

double estimate_projection_residual(MatrixView x, MatrixView v, int probes,
                                    Rng& rng) {
  Workspace ws;
  return estimate_projection_residual(x, v, probes, rng, ws);
}

}  // namespace arams::linalg
