#pragma once
// Shared squared-Euclidean distance engine for the downstream pipeline
// (kNN graphs, UMAP transform, OPTICS, ABOD, k-means assignment).
//
// Every consumer used to run its own per-pair scalar loop; this module
// routes all of them through one blocked primitive: a distance block
// D(i,j) = ‖x_i − y_j‖² is computed as ‖x_i‖² + ‖y_j‖² − 2·(X·Yᵀ)(i,j),
// where X·Yᵀ goes through the packed, register-blocked `matmul_nt` core
// (which fans row bands across the shared pool above its flop threshold).
// The rank-1 fix-up and any per-row selection are themselves row-band
// parallel above `kElementParallelThreshold` output elements; bands are
// disjoint rows with per-element independent arithmetic, so parallel and
// sequential runs produce bit-identical blocks.
//
// Scratch discipline: blocks land in caller-provided matrices (typically
// `Workspace` slots in the `wslot::kDist*` range), so steady-state calls in
// a snapshot loop are allocation-free; a pool entry allocates nothing.
//
// Accuracy contract: the Gram trick reorders the accumulation, so engine
// distances differ from the naive per-pair loop by rounding only —
// ≤ 1e-10 relative (enforced by tests/test_distance.cpp); exact zeros can
// come out as tiny negatives and are clamped to 0. Consumers that need the
// naive arithmetic bit-for-bit (parity tests, the OPTICS ordering-stability
// check) pass `DistanceOptions{.use_gemm = false}`.
//
// Telemetry: every GEMM-backed block bumps "embed.distance_gemm_count".

#include <algorithm>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace arams::embed {

/// Scalar squared Euclidean distance — the shared reference path every
/// consumer falls back to for single pairs and tiny shapes.
double sq_dist(std::span<const double> a, std::span<const double> b);

struct DistanceOptions {
  /// false → per-pair scalar loops (bitwise-identical to the historical
  /// implementations; used as the parity/ordering reference).
  bool use_gemm = true;
  /// false → keep the fix-up/selection single-threaded even above the
  /// element threshold (the GEMM core's own dispatch is unaffected).
  bool allow_parallel = true;
};

/// The engine's fix-up from a Gram value g = x·y to d² = ‖x − y‖²:
/// max(0, ‖x‖² + ‖y‖² − 2g), the clamp absorbing the tiny negatives that
/// cancellation leaves at exact zeros. Every consumer that fuses the
/// fix-up into its own pass calls this, so all of them form d² with the
/// one expression `pairwise_sq_dists*` uses.
inline double gram_sq_dist(double x_sq_norm, double y_sq_norm, double g) {
  return std::max(0.0, x_sq_norm + y_sq_norm - 2.0 * g);
}

/// Throws CheckError naming `what` and the row and column of the first NaN
/// or ±inf in `rows`. Every point set entering a distance consumer
/// (searcher build/insert/query, OPTICS, HDBSCAN) goes through it: the
/// fix-up above turns a NaN into 0, so a non-finite row would otherwise sit
/// at distance 0 from every point.
void check_finite(linalg::MatrixView rows, const char* what);

/// out[i] = ‖a.row(i)‖². `out.size()` must equal `a.rows()`.
void row_sq_norms(linalg::MatrixView a, std::span<double> out);

/// Fills `out` (x.rows()×y.rows()) with squared distances between every row
/// of x and every row of y. `out` is reshaped in place (grow-only).
void pairwise_sq_dists(linalg::MatrixView x, linalg::MatrixView y,
                       linalg::Workspace& ws, linalg::Matrix& out,
                       const DistanceOptions& opts = {});

/// Same, with caller-precomputed squared row norms — the hoisted form for
/// loops that stream many query blocks against one reference set (blocked
/// kNN, k-means assignment sweeps).
void pairwise_sq_dists_prenormed(linalg::MatrixView x, linalg::MatrixView y,
                                 std::span<const double> x_sq_norms,
                                 std::span<const double> y_sq_norms,
                                 linalg::Workspace& ws, linalg::Matrix& out,
                                 const DistanceOptions& opts = {});

/// Gram-only block: out = x·yᵀ through the same packed GEMM core (and the
/// same telemetry counter), with *no* norm fix-up. For consumers that fuse
/// the ‖x‖² + ‖y‖² − 2g fix-up into their own consumption pass (the blocked
/// kNN selection does this) so the block is traversed once instead of
/// twice. Apply the fix-up with gram_sq_dist to keep results identical.
void pairwise_gram(linalg::MatrixView x, linalg::MatrixView y,
                   linalg::Matrix& out);

/// Copies rows `idx` of `src` into `out` (idx.size()×src.cols()), the
/// gather step for candidate-set Gram scoring (NN-descent joins, ABOD
/// neighbourhood angle statistics).
void gather_rows(linalg::MatrixView src, std::span<const std::size_t> idx,
                 linalg::Matrix& out);

}  // namespace arams::embed
