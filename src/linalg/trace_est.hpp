#pragma once
// Stochastic trace estimation.
//
// Section IV-A2 of the paper uses plain Gaussian probes for the
// reconstruction-error estimate and names stochastic trace estimation
// (Hutchinson) and variance-reduced variants as the future-work upgrades
// "with the potential to significantly improve runtime and error rates for
// rank adaptivity". Both are implemented here:
//  * hutchinson_trace — Rademacher probes; Var ∝ ‖M‖²_F/ν.
//  * hutchpp_trace   — Hutch++ (Meyer, Musco, Musco, Woodruff 2021):
//    deflates the top range of M exactly and runs Hutchinson on the
//    remainder; error O(1/ν) instead of O(1/√ν) for PSD operators.
//
// Both operate on a symmetric operator given only its matvec, like the
// power iteration in norms.hpp.

#include <functional>
#include <span>
#include <string>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::linalg {

class Workspace;

using SymMatVec =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Hutchinson estimator: (1/ν)·Σ zᵀMz with z Rademacher. Unbiased.
double hutchinson_trace(const SymMatVec& matvec, std::size_t dim, int probes,
                        Rng& rng);

/// Hutch++: spends probes/3 on a sketch of the range, probes/3 on the
/// exact trace of the deflated part, probes/3 on Hutchinson of the rest.
/// Requires probes >= 3; unbiased; far lower variance on PSD M with decay.
double hutchpp_trace(const SymMatVec& matvec, std::size_t dim, int probes,
                     Rng& rng);

/// Which estimator drives the Algorithm-1 reconstruction-error estimate.
enum class ResidualEstimator {
  kGaussianProbes,  ///< the paper's random-matrix-multiplication estimate
  kHutchinson,      ///< Rademacher stochastic trace estimation
  kHutchPlusPlus,   ///< variance-reduced Hutch++
};

/// ‖X − X·VᵀV‖²_F estimated with the selected strategy and `probes`
/// matvec-equivalents. V must have orthonormal rows. All strategies are
/// unbiased; they differ in variance per probe. The Gaussian-probe
/// strategy runs blocked in `ws` (see estimate_projection_residual).
double estimate_residual(MatrixView x, MatrixView v,
                         ResidualEstimator estimator, int probes, Rng& rng,
                         Workspace& ws);

/// Convenience form with a call-local workspace.
double estimate_residual(MatrixView x, MatrixView v,
                         ResidualEstimator estimator, int probes, Rng& rng);

/// Parses "gaussian" / "hutchinson" / "hutchpp"; throws on other input.
ResidualEstimator parse_residual_estimator(const std::string& name);

/// Display name of an estimator.
std::string residual_estimator_name(ResidualEstimator estimator);

}  // namespace arams::linalg
