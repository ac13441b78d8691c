#pragma once
// Norm computations and randomized estimators.
//
// covariance_error is the paper's sketch-quality metric ‖AᵀA − BᵀB‖₂. The
// d×d difference is never formed: a power iteration works through matvecs
// x ↦ Aᵀ(Ax) − Bᵀ(Bx), so the cost is O(iters · (nnz(A)+nnz(B))) and 2-MP
// image dimensions stay feasible.
//
// estimate_projection_residual is Algorithm 1's randomized Frobenius
// estimator: E‖(I − VᵀV)·Xᵀ·g‖² over Gaussian probes g equals
// ‖X − X·VᵀV‖²_F (rows of V orthonormal). The Bujanovic–Kressner analysis
// gives the tail bounds the paper cites.

#include <functional>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::linalg {

class Workspace;

/// Largest absolute eigenvalue of a symmetric operator given only its
/// matvec. `dim` is the operator order. Uses power iteration with a random
/// start; deterministic given `rng`.
double spectral_norm_sym(
    const std::function<void(std::span<const double>, std::span<double>)>&
        matvec,
    std::size_t dim, Rng& rng, int iters = 60);

/// Spectral norm of a general matrix via power iteration on AᵀA.
double spectral_norm(const Matrix& a, Rng& rng, int iters = 60);

/// ‖AᵀA − BᵀB‖₂ — the covariance (sketch) error. Column counts must match.
double covariance_error(const Matrix& a, const Matrix& b, Rng& rng,
                        int iters = 60);

/// covariance_error normalized by ‖A‖²_F, the scale-free form used when
/// comparing across datasets.
double covariance_error_relative(const Matrix& a, const Matrix& b, Rng& rng,
                                 int iters = 60);

/// ‖X − X·VᵀV‖²_F computed exactly (rows of `v` must be orthonormal,
/// spanning the retained subspace). O(n·d·k); used by tests as ground truth.
double projection_residual_exact(MatrixView x, MatrixView v);

/// The same given x_sq_norm = frobenius_norm_squared(x), for a caller that
/// already holds it (the health check divides by it): one pass over X
/// fewer, the same bits.
double projection_residual_exact(MatrixView x, MatrixView v,
                                 double x_sq_norm);

/// Randomized estimate of projection_residual_exact using `probes` Gaussian
/// probe vectors (Algorithm 1 of the paper). Unbiased; relative accuracy
/// improves roughly 10% per 10 probes as reported in the paper.
///
/// The ν probes run as one block of three GEMMs — Y = G·X, C = Y·Vᵀ,
/// Ŷ = C·V — so X and V each stream through memory a constant number of
/// times instead of once or twice per probe. G's rows come from `rng` in
/// probe order, so the draws match a probe-at-a-time loop. Scratch lives in
/// `ws` (wslot::kProbe*): repeated calls at a fixed shape do not allocate.
double estimate_projection_residual(MatrixView x, MatrixView v, int probes,
                                    Rng& rng, Workspace& ws);

/// Convenience form with a call-local workspace.
double estimate_projection_residual(MatrixView x, MatrixView v, int probes,
                                    Rng& rng);

}  // namespace arams::linalg
