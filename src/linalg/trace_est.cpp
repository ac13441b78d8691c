#include "linalg/trace_est.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/workspace.hpp"
#include "util/check.hpp"

namespace arams::linalg {

namespace {

void fill_rademacher(std::span<double> z, Rng& rng) {
  for (auto& v : z) {
    v = (rng.next_u64() & 1u) ? 1.0 : -1.0;
  }
}

}  // namespace

double hutchinson_trace(const SymMatVec& matvec, std::size_t dim, int probes,
                        Rng& rng) {
  ARAMS_CHECK(dim > 0, "trace of an empty operator");
  ARAMS_CHECK(probes >= 1, "need at least one probe");
  std::vector<double> z(dim), mz(dim);
  double acc = 0.0;
  for (int p = 0; p < probes; ++p) {
    fill_rademacher(z, rng);
    matvec(z, mz);
    acc += dot(z, mz);
  }
  return acc / probes;
}

double hutchpp_trace(const SymMatVec& matvec, std::size_t dim, int probes,
                     Rng& rng) {
  ARAMS_CHECK(dim > 0, "trace of an empty operator");
  ARAMS_CHECK(probes >= 3, "Hutch++ needs at least 3 probes");
  const std::size_t m =
      std::min<std::size_t>(std::max<int>(probes / 3, 1), dim);

  // 1. Range sketch: S = M·G with G Rademacher, then Q = orth(S).
  Matrix q(dim, m);  // columns built one at a time
  {
    std::vector<double> g(dim), mg(dim);
    for (std::size_t j = 0; j < m; ++j) {
      fill_rademacher(g, rng);
      matvec(g, mg);
      for (std::size_t i = 0; i < dim; ++i) {
        q(i, j) = mg[i];
      }
    }
  }
  const std::size_t rank = orthonormalize_columns(q);

  // 2. Exact trace of the deflated top part: Σⱼ qⱼᵀ M qⱼ.
  double top = 0.0;
  std::vector<double> col(dim), mcol(dim);
  for (std::size_t j = 0; j < rank; ++j) {
    for (std::size_t i = 0; i < dim; ++i) col[i] = q(i, j);
    matvec(col, mcol);
    top += dot(col, mcol);
  }

  // 3. Hutchinson on the residual operator (I−QQᵀ)M(I−QQᵀ).
  const int rest_probes = std::max(probes - 2 * static_cast<int>(m), 1);
  std::vector<double> z(dim), mz(dim), coeff(rank);
  const auto project_out = [&](std::vector<double>& vec) {
    // vec ← (I − QQᵀ)·vec, using the first `rank` columns of q.
    for (std::size_t j = 0; j < rank; ++j) {
      double c = 0.0;
      for (std::size_t i = 0; i < dim; ++i) c += q(i, j) * vec[i];
      coeff[j] = c;
    }
    for (std::size_t j = 0; j < rank; ++j) {
      for (std::size_t i = 0; i < dim; ++i) {
        vec[i] -= coeff[j] * q(i, j);
      }
    }
  };
  double rest = 0.0;
  for (int p = 0; p < rest_probes; ++p) {
    fill_rademacher(z, rng);
    project_out(z);
    matvec(z, mz);
    project_out(mz);
    rest += dot(z, mz);
  }
  return top + rest / rest_probes;
}

double estimate_residual(MatrixView x, MatrixView v,
                         ResidualEstimator estimator, int probes, Rng& rng,
                         Workspace& ws) {
  ARAMS_CHECK(v.cols() == x.cols(), "projection basis dimension mismatch");
  ARAMS_CHECK(probes >= 1, "need at least one probe");
  if (estimator == ResidualEstimator::kGaussianProbes) {
    return estimate_projection_residual(x, v, probes, rng, ws);
  }

  // Residual = tr(M) for the n×n PSD operator M = X(I−VᵀV)Xᵀ.
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = v.rows();
  std::vector<double> y(d), c(k);
  const SymMatVec matvec = [&](std::span<const double> in,
                               std::span<double> out) {
    gemv_t(x, in, y);  // y = Xᵀ·in
    if (k > 0) {
      gemv(v, y, c);   // c = V·y
      for (std::size_t j = 0; j < k; ++j) {
        axpy(-c[j], v.row(j), y);  // y ← (I − VᵀV)·y
      }
    }
    gemv(x, y, out);  // out = X·y
  };

  if (estimator == ResidualEstimator::kHutchinson) {
    return hutchinson_trace(matvec, n, probes, rng);
  }
  if (probes < 3) {
    // Hutch++ degenerates below 3 probes; fall back to Hutchinson.
    return hutchinson_trace(matvec, n, probes, rng);
  }
  return hutchpp_trace(matvec, n, probes, rng);
}

double estimate_residual(MatrixView x, MatrixView v,
                         ResidualEstimator estimator, int probes, Rng& rng) {
  Workspace ws;
  return estimate_residual(x, v, estimator, probes, rng, ws);
}

ResidualEstimator parse_residual_estimator(const std::string& name) {
  if (name == "gaussian") return ResidualEstimator::kGaussianProbes;
  if (name == "hutchinson") return ResidualEstimator::kHutchinson;
  if (name == "hutchpp") return ResidualEstimator::kHutchPlusPlus;
  ARAMS_CHECK(false, "unknown residual estimator: " + name);
  return ResidualEstimator::kGaussianProbes;
}

std::string residual_estimator_name(ResidualEstimator estimator) {
  switch (estimator) {
    case ResidualEstimator::kGaussianProbes:
      return "gaussian";
    case ResidualEstimator::kHutchinson:
      return "hutchinson";
    case ResidualEstimator::kHutchPlusPlus:
      return "hutchpp";
  }
  return "?";
}

}  // namespace arams::linalg
