#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/workspace.hpp"

namespace arams::linalg {

void jacobi_eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                            double tol, int max_sweeps) {
  ARAMS_CHECK(a.rows() == a.cols(), "eigensolver needs a square matrix");
  ARAMS_CHECK(a.rows() > 0, "eigensolver needs a non-empty matrix");
  const std::size_t n = a.rows();

  // Work on the symmetrized copy; Gram products can carry ~eps asymmetry.
  Matrix& w = ws.mat(wslot::kEigWork, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w(i, j) = 0.5 * (a(i, j) + a(j, i));
    }
  }
  Matrix& v = ws.mat(wslot::kEigVectors, n, n);
  v.fill(0.0);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  // Scale-invariant convergence threshold on off-diagonal mass.
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diag_scale = std::max(diag_scale, std::abs(w(i, i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      diag_scale = std::max(diag_scale, std::abs(w(i, j)));
    }
  }
  const double threshold = tol * std::max(diag_scale, 1e-300);

  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        off = std::max(off, std::abs(w(i, j)));
      }
    }
    if (off <= threshold) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = w(p, q);
        if (std::abs(apq) <= threshold * 1e-2) continue;
        const double app = w(p, p);
        const double aqq = w(q, q);
        // Classic Jacobi rotation parameters.
        const double theta = 0.5 * (aqq - app) / apq;
        const double t =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Update rows/columns p and q of w.
        for (std::size_t k = 0; k < n; ++k) {
          const double wkp = w(k, p);
          const double wkq = w(k, q);
          w(k, p) = c * wkp - s * wkq;
          w(k, q) = s * wkp + c * wkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double wpk = w(p, k);
          const double wqk = w(q, k);
          w(p, k) = c * wpk - s * wqk;
          w(q, k) = s * wpk + c * wqk;
        }
        // Accumulate eigenvectors.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  out.iterations = sweep;

  // Extract and sort descending.
  const std::span<std::size_t> order = ws.idx(wslot::kEigOrder, n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::span<double> values = ws.vec(wslot::kEigValues, n);
  for (std::size_t i = 0; i < n; ++i) values[i] = w(i, i);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return values[x] > values[y];
  });

  out.values.resize(n);
  out.vectors.reshape(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = values[order[k]];
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, k) = v(i, order[k]);
    }
  }
}

SymmetricEig jacobi_eigen_symmetric(const Matrix& a, double tol,
                                    int max_sweeps) {
  Workspace ws;
  SymmetricEig out;
  jacobi_eigen_symmetric(MatrixView(a), ws, out, tol, max_sweeps);
  return out;
}

}  // namespace arams::linalg
