#include "embed/pca.hpp"

#include <algorithm>

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

Matrix PcaProjector::project(const Matrix& x) const {
  ARAMS_CHECK(x.cols() == basis_.cols(), "data dimension mismatch");
  return linalg::matmul_nt(x, basis_);
}

namespace {

// Rows per block of project_rows. A multiple of the GEMM's 4-row register
// tile, so every row takes the micro-kernel path it takes in one
// whole-matrix product, and each block's result is bitwise its rows. 64
// rows of 4096 pixels are 2 MiB, so a block is still in cache when the
// product reads it back.
constexpr std::size_t kProjectBlockRows = 64;

}  // namespace

Matrix PcaProjector::project_rows(
    std::size_t n,
    const std::function<std::span<const double>(std::size_t)>& row,
    Matrix& block) const {
  Matrix out(n, components());
  Matrix part;
  for (std::size_t start = 0; start < n; start += kProjectBlockRows) {
    const std::size_t rows = std::min(kProjectBlockRows, n - start);
    block.reshape(rows, dim());
    for (std::size_t r = 0; r < rows; ++r) {
      block.set_row(r, row(start + r));
    }
    linalg::matmul_nt(block, basis_, part);
    std::copy(part.data(), part.data() + part.size(),
              out.data() + start * out.cols());
  }
  return out;
}

Matrix PcaProjector::reconstruct(const Matrix& z) const {
  ARAMS_CHECK(z.cols() == basis_.rows(), "latent dimension mismatch");
  return linalg::matmul(z, basis_);
}

}  // namespace arams::embed
