#pragma once
// BLAS-like dense kernels. These are the only loops that matter for
// throughput: FD's shrink is dominated by the Gram product B·Bᵀ and the
// back-multiplication Uᵀ·B, and the data generator by orthogonal assembly.
//
// The matmul/Gram family is cache-blocked (KC×NC panels packed into
// contiguous scratch) with an MR=4 register-blocked micro-kernel, and
// fans out onto the shared parallel::ThreadPool once a call exceeds a flop
// threshold — below it everything stays sequential so the small shapes FD
// produces at modest ℓ pay zero overhead. GEMM picks its parallel axis by
// shape, once per call: whole NC column blocks per task for short-fat
// d ≫ ℓ products, row bands otherwise, serial when neither axis has a unit
// of work per pool thread. Every partition covers disjoint outputs with an
// unchanged per-element accumulation order, so tiled, parallel and
// sequential paths produce identical results at any pool size.
// Packing scratch is thread-local and grow-only: steady-state calls do not
// touch the heap. Dispatches are counted in the
// "linalg.gemm_parallel_count" metric. A call made on one of the pool's own
// workers takes the serial path (parallel_for would run its tasks inline
// there anyway) and is not counted.
//
// All kernels take MatrixView, so they accept an owning Matrix or a
// zero-copy row-range view (MatrixView::rows_of) interchangeably. The
// out-parameter overloads reshape `out` in place (grow-only storage) for
// allocation-free reuse; the value-returning forms are conveniences that
// allocate a fresh result.
//
// Every matrix kernel is fp64: fp32 rows are widened before they reach
// one (by the Sketcher's fp32 push_batch, or by the fp32 priority sampler
// for its survivors). The only fp32 overloads are `dot` and
// `norm2_squared`, which that sampler reads its row weights through; they
// accumulate in double.

#include <span>

#include "linalg/matrix.hpp"

namespace arams::linalg {

/// y += alpha * x (sizes must match).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha.
void scale(std::span<double> x, double alpha);

/// Dot product of equal-length vectors.
double dot(std::span<const double> x, std::span<const double> y);

/// Dot product of fp32 vectors, accumulated in double.
double dot(std::span<const float> x, std::span<const float> y);

/// Euclidean norm of a vector.
double norm2(std::span<const double> x);

/// Squared Euclidean norm.
double norm2_squared(std::span<const double> x);
double norm2_squared(std::span<const float> x);

/// C = A * B (m×k times k×n).
Matrix matmul(MatrixView a, MatrixView b);
void matmul(MatrixView a, MatrixView b, Matrix& out);

/// C = Aᵀ * B (A is k×m, B is k×n → result m×n).
Matrix matmul_tn(MatrixView a, MatrixView b);
void matmul_tn(MatrixView a, MatrixView b, Matrix& out);

/// C = A * Bᵀ (A is m×k, B is n×k → result m×n).
Matrix matmul_nt(MatrixView a, MatrixView b);
void matmul_nt(MatrixView a, MatrixView b, Matrix& out);

/// matmul_nt over rows given by pointer: out = A·Bᵀ, where row i of A is
/// the b.cols() doubles at rows[i]. Bitwise equal to matmul_nt of the
/// matrix those rows form, at any pool size, without forming it: A is read
/// only where the GEMM packs its 4-row panels.
void matmul_nt(std::span<const double* const> rows, MatrixView b,
               Matrix& out);

/// One row of matmul_nt with B supplied transposed: out[j] = a·B(j, :) for
/// j < out.size(), where bt holds B's a.size() columns as rows of stride
/// ldb >= out.size() (B(j, p) = bt[p·ldb + j]). Bitwise equal to row 0 of
/// matmul_nt(a, B) on any compiler: the same 256-wide k panels, each
/// summed by the one compiled loop the GEMM runs for its one-row tiles.
/// Serial; callers that need many rows fan them out themselves.
void matmul_nt_row(std::span<const double> a, const double* bt,
                   std::size_t ldb, std::span<double> out);

/// Gram matrix G = A * Aᵀ (m×m, symmetric). Only the upper triangle is
/// computed (4×4 dot tiles); the lower is mirrored afterwards.
Matrix gram_rows(MatrixView a);
void gram_rows(MatrixView a, Matrix& out);

/// Gram matrix G = Aᵀ * A (n×n, symmetric).
Matrix gram_cols(MatrixView a);
void gram_cols(MatrixView a, Matrix& out);

/// y = A * x (A m×n, x length n, y length m).
void gemv(MatrixView a, std::span<const double> x, std::span<double> y);

/// y = Aᵀ * x (A m×n, x length m, y length n).
void gemv_t(MatrixView a, std::span<const double> x, std::span<double> y);

/// Frobenius norm of a matrix.
double frobenius_norm(MatrixView a);

/// Squared Frobenius norm.
double frobenius_norm_squared(MatrixView a);

}  // namespace arams::linalg
