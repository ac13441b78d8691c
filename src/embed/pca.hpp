#pragma once
// PCA latent projection from a matrix sketch.
//
// The sketch B (≤ ℓ rows) stands in for the full data matrix A: the top-k
// right singular vectors of B approximate A's principal directions at the
// FD error bound, so projecting the original rows onto them produces the
// low-dimensional latent space UMAP consumes (stage 2 of Fig. 4).

#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace arams::linalg {
class Workspace;
}  // namespace arams::linalg

namespace arams::embed {

class PcaProjector {
 public:
  /// Builds the projector from a sketch: top-k right singular vectors of
  /// `sketch`. Keeps fewer than k components if the sketch's numerical rank
  /// is smaller.
  PcaProjector(const linalg::Matrix& sketch, std::size_t k);

  /// Workspace-backed variant for callers that rebuild the projector per
  /// snapshot (e.g. the stream monitor): the short-fat path draws its Gram,
  /// eigensolver scratch, and SVD factors from `ws`, so repeated same-shape
  /// rebuilds stop allocating. Only the top-k singular directions are
  /// materialized. Falls back to the allocating path for tall sketches.
  PcaProjector(const linalg::Matrix& sketch, std::size_t k,
               linalg::Workspace& ws);

  /// Projects rows of x (n×d) into the latent space (n×components()).
  [[nodiscard]] linalg::Matrix project(const linalg::Matrix& x) const;

  /// project() of the n×dim() matrix whose i-th row is row(i), without
  /// building or gathering that matrix: one GEMM reads the rows in place
  /// (linalg::matmul_nt over row pointers), in row bands on the shared
  /// pool. Bitwise equal to project() of the whole matrix at any pool
  /// size. The rows must stay valid for the call.
  [[nodiscard]] linalg::Matrix project_rows(
      std::size_t n,
      const std::function<std::span<const double>(std::size_t)>& row) const;

  /// Reconstructs latent rows back into data space (n×k → n×d).
  [[nodiscard]] linalg::Matrix reconstruct(const linalg::Matrix& z) const;

  /// Orthonormal principal directions, one per row (components()×d).
  [[nodiscard]] const linalg::Matrix& basis() const { return basis_; }

  /// Singular values of the sketch associated with each component.
  [[nodiscard]] const std::vector<double>& singular_values() const {
    return sigma_;
  }

  [[nodiscard]] std::size_t components() const { return basis_.rows(); }
  [[nodiscard]] std::size_t dim() const { return basis_.cols(); }

 private:
  void init(const linalg::Matrix& sketch, std::size_t k,
            linalg::Workspace& ws);

  linalg::Matrix basis_;
  std::vector<double> sigma_;
};

}  // namespace arams::embed
