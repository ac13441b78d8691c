#pragma once
// Symmetric dense eigensolvers.
//
// The FD shrink step needs the full eigendecomposition of the 2ℓ×2ℓ Gram
// matrix B·Bᵀ on every shrink — the single hottest kernel on the sketch
// critical path now that the GEMM side is tiled. Two implementations with
// different roles:
//
//  * eigen_symmetric — the solver every production path calls: blocked
//    Householder tridiagonalization (dsytrd-style panels whose rank-2k
//    trailing updates run through the packed GEMM core, so they inherit its
//    tiling and thread-pool parallelism), implicit Wilkinson-shift QL
//    iteration with deflation on the tridiagonal (dsteqr-style), and
//    Householder back-transformation of only the eigenvectors the caller
//    keeps. ~(4/3)n³ flops to tridiagonal + O(n³) QL accumulation, an order
//    of magnitude under Jacobi's per-sweep cost times 6–10 sweeps. It
//    records the "linalg.eig_seconds" / "linalg.eig_iterations" metrics.
//  * jacobi_eigen_symmetric — cyclic threshold Jacobi, the verification
//    reference. Unconditionally stable and embarrassingly simple to audit;
//    the tests and BM_EigSymJacobi call it directly, no production path
//    does.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace arams::linalg {

struct SymmetricEig {
  std::vector<double> values;  ///< all n eigenvalues, descending
  /// Column k is the eigenvector of values[k]. n×min(n, max_vectors)
  /// columns; empty when EigenConfig::vectors is false.
  Matrix vectors;
  /// Convergence effort: implicit-QL shift iterations (Jacobi sweeps for
  /// the reference solver).
  int iterations = 0;
};

class Workspace;

struct EigenConfig {
  /// false: eigenvalues only. The QL iteration then skips the rotation
  /// accumulation entirely (O(n²) instead of O(n³)).
  bool vectors = true;
  /// Form at most this many eigenvectors (top of the descending order).
  /// FD's shrink keeps at most ℓ−1 of 2ℓ directions, so capping here stops
  /// the back-transformation at the retained prefix.
  std::size_t max_vectors = static_cast<std::size_t>(-1);
};

/// Full eigendecomposition of a symmetric matrix by tridiagonal QR. The
/// input is validated for squareness; mild asymmetry (roundoff from Gram
/// products) is symmetrized internally. Throws CheckError for empty input
/// or QL non-convergence. Allocation-free at steady state: all scratch
/// lives in the wslot::kTrd* slots of `ws` and `out` reshapes in place.
void eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                     const EigenConfig& config = {});

/// Allocating convenience wrapper.
SymmetricEig eigen_symmetric(const Matrix& a, const EigenConfig& config = {});

/// Reference solver (cyclic threshold Jacobi). Quadratic per sweep over
/// n(n−1)/2 rotations; converges in a handful of sweeps at FD sizes but
/// does ~an order of magnitude more flops than the tridiagonal path. Kept
/// verbatim as the verification baseline; always forms all n eigenvectors.
SymmetricEig jacobi_eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                    int max_sweeps = 50);

/// Allocation-free Jacobi variant: all scratch (rotation target,
/// eigenvector accumulator, sort permutation) lives in `ws` (slots
/// wslot::kEig*), and `out` is reshaped in place, so repeated same-shape
/// calls never touch the heap. `a` may alias a workspace matrix from a
/// *different* slot (it is copied into kEigWork before rotations start).
void jacobi_eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                            double tol = 1e-12, int max_sweeps = 50);

}  // namespace arams::linalg
