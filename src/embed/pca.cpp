#include "embed/pca.hpp"

#include <algorithm>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "util/check.hpp"

namespace arams::embed {

using linalg::Matrix;

PcaProjector::PcaProjector(const Matrix& sketch, std::size_t k) {
  linalg::Workspace ws;
  init(sketch, k, ws);
}

PcaProjector::PcaProjector(const Matrix& sketch, std::size_t k,
                           linalg::Workspace& ws) {
  init(sketch, k, ws);
}

void PcaProjector::init(const Matrix& sketch, std::size_t k,
                        linalg::Workspace& ws) {
  ARAMS_CHECK(sketch.rows() > 0 && sketch.cols() > 0,
              "cannot build PCA from an empty sketch");
  ARAMS_CHECK(k > 0, "need at least one component");
  if (sketch.rows() <= sketch.cols()) {
    // Sketch rows never exceed ℓ here, so the Gram trick applies; the
    // workspace's reusable RowSpaceSvd keeps repeated rebuilds (one per
    // monitor snapshot) off the heap, and max_rank=k stops the eigenvector
    // back-transformation at the components we keep.
    linalg::RowSpaceSvd& svd = ws.rsvd();
    linalg::gram_row_svd(linalg::MatrixView(sketch), ws, svd, k);
    basis_ = linalg::right_vectors(svd, k);
    sigma_.assign(svd.sigma.begin(),
                  svd.sigma.begin() +
                      static_cast<std::ptrdiff_t>(basis_.rows()));
  } else {
    const linalg::ThinSvd svd = linalg::jacobi_svd(sketch);
    const std::size_t kept = std::min(k, svd.vt.rows());
    basis_ = svd.vt.slice_rows(0, kept);
    sigma_.assign(svd.sigma.begin(),
                  svd.sigma.begin() + static_cast<std::ptrdiff_t>(kept));
  }
  ARAMS_CHECK(basis_.rows() > 0, "sketch had numerical rank zero");
}

Matrix PcaProjector::project(linalg::MatrixView x) const {
  ARAMS_CHECK(x.cols() == basis_.cols(), "data dimension mismatch");
  return linalg::matmul_nt(x, basis_);
}

Matrix PcaProjector::project_rows(
    std::size_t n,
    const std::function<std::span<const double>(std::size_t)>& row) const {
  std::vector<const double*> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> r = row(i);
    ARAMS_CHECK(r.size() == basis_.cols(), "data dimension mismatch");
    rows[i] = r.data();
  }
  Matrix out;
  linalg::matmul_nt(rows, basis_, out);
  return out;
}

Matrix PcaProjector::reconstruct(const Matrix& z) const {
  ARAMS_CHECK(z.cols() == basis_.rows(), "latent dimension mismatch");
  return linalg::matmul(z, basis_);
}

}  // namespace arams::embed
