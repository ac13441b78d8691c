// Unit and property tests for the BLAS-like kernels. Property tests check
// algebraic identities on random matrices across a size sweep (TEST_P).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::linalg {
namespace {

// The parallel GEMM path needs a pool with >= 2 workers. On single-core CI
// boxes hardware_concurrency() is 1, so force the pool size via env before
// anything touches parallel::shared_pool() (it is built lazily on the first
// above-threshold kernel call, well after static init). An externally set
// value wins (overwrite = 0).
const bool kPoolEnvForced = [] {
  ::setenv("ARAMS_POOL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

TEST(Blas, DotBasics) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(Blas, AxpyAccumulates) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y[0], 10.5);
  EXPECT_DOUBLE_EQ(y[1], 21.0);
}

TEST(Blas, ScaleInPlace) {
  std::vector<double> x{2.0, -4.0};
  scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(Blas, NormsAgree) {
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm2_squared(x), 25.0);
}

TEST(Blas, MatmulKnownValues) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), CheckError);
}

TEST(Blas, GemvMatchesMatmul) {
  Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  Matrix x(4, 1);
  rng.fill_normal(x.row(0));  // column vector as 4x1 via transpose trick
  std::vector<double> xv(4);
  for (std::size_t i = 0; i < 4; ++i) xv[i] = x(i, 0);
  std::vector<double> y(6);
  gemv(a, xv, y);
  const Matrix ax = matmul(a, x);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(y[i], ax(i, 0), 1e-12);
  }
}

TEST(Blas, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(5, 3, rng);
  std::vector<double> x(5);
  rng.fill_normal(x);
  std::vector<double> y(3);
  gemv_t(a, x, y);
  std::vector<double> expected(3);
  gemv(a.transposed(), x, expected);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(y[i], expected[i], 1e-12);
  }
}

TEST(Blas, FrobeniusNorm) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(frobenius_norm_squared(a), 25.0);
}

/// Property sweep across shapes: transpose-product identities.
class BlasShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlasShapes, MatmulTnMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const Matrix a = random_matrix(k, m, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix fast = matmul_tn(a, b);
  const Matrix ref = matmul(a.transposed(), b);
  EXPECT_LT(Matrix::max_abs_diff(fast, ref), 1e-10);
}

TEST_P(BlasShapes, MatmulNtMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + k * 11 + n * 13));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix fast = matmul_nt(a, b);
  const Matrix ref = matmul(a, b.transposed());
  EXPECT_LT(Matrix::max_abs_diff(fast, ref), 1e-10);
}

TEST_P(BlasShapes, GramRowsMatchesProduct) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + k + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix g = gram_rows(a);
  const Matrix ref = matmul_nt(a, a);
  EXPECT_LT(Matrix::max_abs_diff(g, ref), 1e-10);
  // Symmetry.
  EXPECT_LT(Matrix::max_abs_diff(g, g.transposed()), 1e-12);
}

TEST_P(BlasShapes, GramColsMatchesProduct) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + k * 5 + n * 7));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix g = gram_cols(a);
  const Matrix ref = matmul_tn(a, a);
  EXPECT_LT(Matrix::max_abs_diff(g, ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlasShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 5, 5}, std::tuple{7, 2, 9},
                      std::tuple{16, 33, 8}, std::tuple{40, 17, 25}));

// ---------------------------------------------------------------------------
// Tiled / packed kernels vs. a naive triple loop. The tiled code reorders
// the k-accumulation, so results are not bit-identical to the reference —
// the contract is <= 1e-12 *relative* Frobenius error.

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

double relative_frobenius_error(const Matrix& got, const Matrix& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double d = got(i, j) - want(i, j);
      num += d * d;
      den += want(i, j) * want(i, j);
    }
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/// (m, k, n) shapes chosen to hit every tiling edge case: single element,
/// k spilling one KC panel (257), all dims straddling the MR=4 register
/// block (127/65), tall-thin and short-fat panels.
class TiledVsNaive
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TiledVsNaive, Matmul) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 131071 + k * 8191 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_LE(relative_frobenius_error(matmul(a, b), naive_matmul(a, b)),
            1e-12);
}

TEST_P(TiledVsNaive, MatmulTn) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 524287 + k * 127 + n));
  const Matrix a = random_matrix(k, m, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_LE(relative_frobenius_error(matmul_tn(a, b),
                                     naive_matmul(a.transposed(), b)),
            1e-12);
}

TEST_P(TiledVsNaive, MatmulNt) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 8209 + k * 31 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  EXPECT_LE(relative_frobenius_error(matmul_nt(a, b),
                                     naive_matmul(a, b.transposed())),
            1e-12);
}

TEST_P(TiledVsNaive, GramRows) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(static_cast<std::uint64_t>(m * 97 + k));
  const Matrix a = random_matrix(m, k, rng);
  EXPECT_LE(relative_frobenius_error(gram_rows(a),
                                     naive_matmul(a, a.transposed())),
            1e-12);
}

TEST_P(TiledVsNaive, GramCols) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(static_cast<std::uint64_t>(m * 193 + k * 3));
  const Matrix a = random_matrix(m, k, rng);
  EXPECT_LE(relative_frobenius_error(gram_cols(a),
                                     naive_matmul(a.transposed(), a)),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, TiledVsNaive,
    ::testing::Values(std::tuple{1, 1, 1},        // degenerate single element
                      std::tuple{3, 257, 4},      // k spills one KC panel
                      std::tuple{127, 64, 65},    // dims straddle MR blocks
                      std::tuple{301, 7, 5},      // tall-thin
                      std::tuple{5, 7, 301}));    // short-fat

TEST(BlasParallel, LargeGemmDispatchesToPoolAndMatchesNaive) {
  ASSERT_TRUE(kPoolEnvForced);
  // 2·192³ ≈ 14.2 Mflop, above the 8 Mflop dispatch threshold.
  const std::size_t n = 192;
  Rng rng(4242);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix fast = matmul(a, b);
  ASSERT_GE(parallel::shared_pool().thread_count(), 2u)
      << "ARAMS_POOL_THREADS did not take effect";
  EXPECT_GT(dispatches.value(), before)
      << "above-threshold GEMM did not take the parallel path";
  EXPECT_LE(relative_frobenius_error(fast, naive_matmul(a, b)), 1e-12);
}

TEST(BlasParallel, LargeGramDispatchesToPoolAndMatchesNaive) {
  ASSERT_TRUE(kPoolEnvForced);
  // m²·d = 200²·250 = 10 Mflop, above the dispatch threshold.
  Rng rng(777);
  const Matrix a = random_matrix(200, 250, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix g = gram_rows(a);
  EXPECT_GT(dispatches.value(), before);
  EXPECT_LE(relative_frobenius_error(g, naive_matmul(a, a.transposed())),
            1e-12);
  // Band-parallel Gram must stay exactly symmetric (mirrored, not recomputed).
  EXPECT_EQ(Matrix::max_abs_diff(g, g.transposed()), 0.0);
}

TEST(BlasParallel, DispatchIsCountedOnlyOffThePoolWorkers) {
  ASSERT_TRUE(kPoolEnvForced);
  // On a pool worker parallel_for would run the tasks inline, so the call
  // takes the serial path, with the same bits, and is not a dispatch.
  const std::size_t n = 192;
  Rng rng(4243);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  long before = dispatches.value();
  const Matrix caller = matmul(a, b);
  EXPECT_EQ(dispatches.value(), before + 1);
  Matrix worker;
  before = dispatches.value();
  parallel::shared_pool().submit([&] { worker = matmul(a, b); }).get();
  EXPECT_EQ(dispatches.value(), before);
  EXPECT_EQ(Matrix::max_abs_diff(caller, worker), 0.0);
}

TEST(BlasParallel, BelowThresholdStaysSequential) {
  Rng rng(31);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix c = matmul(a, b);
  EXPECT_EQ(dispatches.value(), before);
  EXPECT_LE(relative_frobenius_error(c, naive_matmul(a, b)), 1e-12);
}

TEST(Blas, MatmulNtRowIsRowOfMatmulNt) {
  // matmul_nt_row runs the GEMM's own one-row loop, so it equals a one-row
  // matmul_nt bit for bit whatever the compiler does with that loop,
  // including k = 3 and 17, where GCC at x86-64-v3 fuses the last product
  // of an odd-length panel, and k past one 256-wide panel. A stride above
  // the row length reads a prefix of each column of Bᵀ.
  Rng rng(17);
  for (const std::size_t k : {1u, 2u, 3u, 17u, 255u, 256u, 257u, 300u,
                              600u}) {
    for (const std::size_t n : {1u, 9u, 700u}) {
      const Matrix a = random_matrix(1, k, rng);
      const Matrix b = random_matrix(n, k, rng);
      const Matrix want = matmul_nt(a, b);
      const std::size_t ldb = n + 5;
      std::vector<double> bt(k * ldb, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t p = 0; p < k; ++p) bt[p * ldb + j] = b(j, p);
      }
      std::vector<double> got(n);
      matmul_nt_row(a.row(0), bt.data(), ldb, got);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got[j], want(0, j)) << "k=" << k << ", n=" << n
                                      << ", j=" << j;
      }
    }
  }
}

TEST(MatmulNtRow, TwoColumnRowIsUnfusedSum) {
  // OPTICS' d = 2 kernel (cluster/sq_dist_2d.cpp) forms its Gram values
  // itself and keeps the bits of the general path only while
  // matmul_nt_row sums every k = 2 row one way: (0 + a0·b0) + a1·b1, with
  // the second product either unfused in every row (GCC 12 in an optimised
  // build, and at the baseline ISA) or fused in every row (under sanitizer
  // instrumentation with a vector ISA). The kernel reads which from one
  // row where the two differ, u = 1 + 2⁻³⁰: u·u rounds away the 2⁻⁶⁰ that
  // the fused form keeps. This takes the form from the same row and checks
  // that 10⁵ others have it. The file is built at the baseline ISA, where
  // x86-64 has no fused multiply-add, so `want` is computed unfused (and
  // std::fma is the correctly rounded library call). The pairs mix values
  // near ±1e6 (every fourth pair cancels almost to zero), subnormal
  // products, magnitudes 1e±150, both signs and exact ±0.
  const double u = 1.0 + 0x1p-30;
  const std::vector<double> probe_a = {u, u};
  const std::vector<double> probe_bt = {u, -u};
  double probe = 0.0;
  matmul_nt_row(probe_a, probe_bt.data(), 1, std::span<double>(&probe, 1));
  const bool fused = probe != 0.0;
  Rng rng(2);
  constexpr std::size_t kRows = 1000;
  constexpr std::size_t kCols = 100;
  const auto draw = [&rng]() -> double {
    const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
    switch (rng.uniform_index(6)) {
      case 0:
        return rng.normal();
      case 1:
        return sign * (1e6 + rng.normal());
      case 2:
        return 1e-160 * rng.normal();
      case 3:
        return 1e150 * rng.normal();
      case 4:
        return 1e-150 * rng.normal();
      default:
        return sign * 0.0;
    }
  };
  std::vector<double> bt(2 * kCols);
  std::vector<double> got(kCols);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::vector<double> a = {draw(), draw()};
    for (std::size_t j = 0; j < kCols; ++j) {
      bt[j] = draw();
      bt[kCols + j] = draw();
      const double cancel =
          -(a[0] * bt[j]) / a[1] * (1.0 + 0x1p-30 * rng.normal());
      if (j % 4 == 0 && a[1] != 0.0 && std::isfinite(cancel)) {
        bt[kCols + j] = cancel;
      }
    }
    matmul_nt_row(a, bt.data(), kCols, got);
    for (std::size_t j = 0; j < kCols; ++j) {
      const double first = 0.0 + a[0] * bt[j];
      const double want = fused ? std::fma(a[1], bt[kCols + j], first)
                                : first + a[1] * bt[kCols + j];
      ASSERT_EQ(got[j], want) << "row " << i << ", column " << j;
      if (want != 0.0) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(want))
            << "row " << i << ", column " << j;
      }
    }
  }
}

TEST(Blas, MatmulNtOverRowPointersIsBitwise) {
  // Rows read in place, in any order, give the bits of the product of
  // the matrix they form: serial, and above the pool threshold.
  Rng rng(18);
  for (const std::size_t m : {1u, 6u, 403u}) {
    const Matrix a = random_matrix(m, 3000, rng);
    const Matrix b = random_matrix(10, 3000, rng);
    std::vector<std::vector<double>> copies(m);
    std::vector<const double*> rows(m);
    Matrix stacked(m, a.cols());
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t src = (i * 7) % m;
      copies[i].assign(a.row(src).begin(), a.row(src).end());
      rows[i] = copies[i].data();
      stacked.set_row(i, a.row(src));
    }
    const Matrix want = matmul_nt(stacked, b);
    Matrix got;
    matmul_nt(rows, b, got);
    ASSERT_EQ(got.rows(), m);
    ASSERT_EQ(got.cols(), b.rows());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "m=" << m << " at " << i;
    }
  }
}

TEST(Blas, MatmulAssociativityProperty) {
  Rng rng(77);
  const Matrix a = random_matrix(4, 5, rng);
  const Matrix b = random_matrix(5, 6, rng);
  const Matrix c = random_matrix(6, 3, rng);
  const Matrix left = matmul(matmul(a, b), c);
  const Matrix right = matmul(a, matmul(b, c));
  EXPECT_LT(Matrix::max_abs_diff(left, right), 1e-10);
}

// ------------------------------------------ mixed-precision (fp32) lane

MatrixF narrow_matrix(const Matrix& m) { return MatrixF::from_matrix(m); }

TEST(BlasMixed, F32DotAndNormsTrackF64) {
  // The fp32 overloads accumulate in double but in a multi-accumulator
  // order, so against the widened-serial reference they agree to rounding,
  // not bitwise.
  Rng rng(41);
  const Matrix wide = random_matrix(2, 501, rng);  // odd length: tail path
  const MatrixF narrow = narrow_matrix(wide);
  const Matrix widened = narrow.to_matrix();
  EXPECT_NEAR(dot(narrow.row(0), narrow.row(1)),
              dot(widened.row(0), widened.row(1)), 1e-10);
  EXPECT_NEAR(norm2_squared(narrow.row(0)), norm2_squared(widened.row(0)),
              1e-10);
  EXPECT_NEAR(norm2(narrow.row(0)), norm2(widened.row(0)), 1e-12);
}

TEST(BlasMixed, AxpyWidensExactly) {
  const std::vector<float> x{1.5F, -2.25F, 0.5F};
  std::vector<double> y{1.0, 2.0, 3.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], -2.5);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

// The lane's core guarantee: every mixed/fp32 GEMM widens its fp32 panels
// at pack time into the fp64 micro-kernel, so the result is bitwise
// identical to widening the operands up front and running the all-fp64
// kernel. Sizes straddle the blocked-kernel and tail paths.
class BlasMixedGemm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlasMixedGemm, MixedTnMatchesWidenedBitwise) {
  const std::size_t n = GetParam();
  Rng rng(43);
  const MatrixF a = narrow_matrix(random_matrix(n + 3, n, rng));
  const MatrixF b = narrow_matrix(random_matrix(n + 3, n + 1, rng));
  const Matrix a64 = a.to_matrix();
  const Matrix b64 = b.to_matrix();

  // Aᵀ(fp64)·B(fp32)
  const Matrix mixed = matmul_tn(MatrixView(a64), MatrixViewF(b));
  const Matrix reference = matmul_tn(a64, b64);
  ASSERT_EQ(mixed.rows(), reference.rows());
  EXPECT_EQ(Matrix::max_abs_diff(mixed, reference), 0.0) << "n=" << n;

  // Aᵀ(fp32)·B(fp32)
  const Matrix both = matmul_tn(MatrixViewF(a), MatrixViewF(b));
  EXPECT_EQ(Matrix::max_abs_diff(both, reference), 0.0) << "n=" << n;

  // A(fp32)·B(fp32) via the plain product
  const MatrixF bt = narrow_matrix(random_matrix(n, n + 1, rng));
  const Matrix prod = matmul(MatrixViewF(a), MatrixViewF(bt));
  EXPECT_EQ(Matrix::max_abs_diff(prod, matmul(a64, bt.to_matrix())), 0.0)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, BlasMixedGemm,
                         ::testing::Values(3, 17, 64, 129));

TEST(BlasMixed, OutParameterReusesStorage) {
  Rng rng(44);
  const MatrixF a = narrow_matrix(random_matrix(20, 12, rng));
  const MatrixF b = narrow_matrix(random_matrix(20, 9, rng));
  Matrix out(40, 40);  // oversized: the kernel must grow-only reshape
  matmul_tn(MatrixViewF(a), MatrixViewF(b), out);
  EXPECT_EQ(out.rows(), 12u);
  EXPECT_EQ(out.cols(), 9u);
  EXPECT_EQ(Matrix::max_abs_diff(out, matmul_tn(a.to_matrix(), b.to_matrix())),
            0.0);
}

// ------------------------------------------ wide (d ≫ ℓ) GEMM dispatch
//
// The short-fat products of an FD shrink and of the blocked rank-adaptive
// probes run as whole column blocks per pool task; the K-dominant probe
// product (10×32, k = 16384) stays serial on a 4-thread pool. Whatever the
// mode, every product must be bitwise identical at pool sizes 1, 2 and 4.
// The shared pool's size is fixed per process, so the cross-size check
// re-runs this binary with ARAMS_POOL_THREADS set and compares bit-level
// fingerprints of every product.

struct WideShape {
  std::size_t m, n, k;
};

std::vector<WideShape> wide_shapes() {
  std::vector<WideShape> shapes;
  for (std::size_t m : {1, 4, 10, 32}) {
    for (std::size_t n : {1024, 16387}) {
      for (std::size_t k : {32, 64}) shapes.push_back({m, n, k});
    }
  }
  shapes.push_back({10, 32, 16384});  // K-dominant: C = Y·Vᵀ of the probes
  return shapes;
}

std::string shape_name(const WideShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k);
}

/// fp32-representable fp64 operand, so the fp64 and fp32 variants share
/// one naive reference.
Matrix representable_matrix(std::size_t r, std::size_t c, Rng& rng) {
  return narrow_matrix(random_matrix(r, c, rng)).to_matrix();
}

struct WideProducts {
  Matrix naive_nn, naive_tn, naive_nt;
  std::vector<std::pair<std::string, Matrix>> got;  ///< variant → product
};

/// NN, TN and NT in fp64 plus the fp32 and mixed overloads, for one shape.
WideProducts wide_products(const WideShape& s, bool with_naive) {
  Rng rng(s.m * 1000003 + s.n * 101 + s.k);
  const Matrix a = representable_matrix(s.m, s.k, rng);   // Aop for NN/NT
  const Matrix at = representable_matrix(s.k, s.m, rng);  // Aᵀ stored, TN
  const Matrix b = representable_matrix(s.k, s.n, rng);   // Bop for NN/TN
  const Matrix bt = representable_matrix(s.n, s.k, rng);  // Bᵀ stored, NT
  const MatrixF a32 = narrow_matrix(a);
  const MatrixF at32 = narrow_matrix(at);
  const MatrixF b32 = narrow_matrix(b);

  WideProducts out;
  out.got.emplace_back("nn", matmul(a, b));
  out.got.emplace_back("tn", matmul_tn(at, b));
  out.got.emplace_back("nt", matmul_nt(a, bt));
  out.got.emplace_back("nn_f32", matmul(MatrixViewF(a32), MatrixViewF(b32)));
  out.got.emplace_back("tn_f32",
                       matmul_tn(MatrixViewF(at32), MatrixViewF(b32)));
  out.got.emplace_back("tn_mixed", matmul_tn(MatrixView(at), MatrixViewF(b32)));
  if (with_naive) {
    out.naive_nn = naive_matmul(a, b);
    out.naive_tn = naive_matmul(at.transposed(), b);
    out.naive_nt = naive_matmul(a, bt.transposed());
  }
  return out;
}

/// FNV-1a over the raw bytes of a matrix: equal iff bitwise equal (up to
/// hash collisions).
std::uint64_t fingerprint(const Matrix& m) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

TEST(BlasParallel, WideShapesMatchNaive) {
  for (const WideShape& s : wide_shapes()) {
    const WideProducts p = wide_products(s, /*with_naive=*/true);
    for (const auto& [variant, got] : p.got) {
      const Matrix& want = variant.rfind("nn", 0) == 0   ? p.naive_nn
                           : variant.rfind("tn", 0) == 0 ? p.naive_tn
                                                         : p.naive_nt;
      EXPECT_LE(relative_frobenius_error(got, want), 1e-12)
          << shape_name(s) << " " << variant;
    }
  }
}

TEST(BlasParallel, WideShapeDispatchFollowsShape) {
  ASSERT_TRUE(kPoolEnvForced);
  if (parallel::shared_pool().thread_count() != 4) {
    GTEST_SKIP() << "dispatch rule pinned for a 4-thread pool";
  }
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  Rng rng(91);
  // Short-fat (the FD shrink's Uᵀ·B at ℓ = 32, d = 16384): 32 column
  // blocks against 8 row tiles — one column-block dispatch.
  const Matrix u = random_matrix(64, 32, rng);
  const Matrix b = random_matrix(64, 16384, rng);
  long before = dispatches.value();
  (void)matmul_tn(u, b);
  EXPECT_EQ(dispatches.value(), before + 1);
  // K-dominant 10×32 with k = 16384: 1 column block, 3 row tiles — fewer
  // units than threads on either axis, so it runs serially.
  const Matrix y = random_matrix(10, 16384, rng);
  const Matrix v = random_matrix(32, 16384, rng);
  before = dispatches.value();
  (void)matmul_nt(y, v);
  EXPECT_EQ(dispatches.value(), before);
}

/// Child half of WideShapesBitwiseAcrossPoolSizes: prints one fingerprint line per
/// product at this process's pool size. Passes on its own.
TEST(BlasParallel, WideShapeFingerprints) {
  for (const WideShape& s : wide_shapes()) {
    for (const auto& [variant, got] : wide_products(s, false).got) {
      std::printf("fingerprint %s %s %016llx\n", shape_name(s).c_str(),
                  variant.c_str(),
                  static_cast<unsigned long long>(fingerprint(got)));
    }
  }
}

std::vector<std::string> fingerprints_at(int threads) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cmd = "ARAMS_POOL_THREADS=" + std::to_string(threads) +
                          " '" + exe +
                          "' --gtest_filter=BlasParallel.WideShapeFingerprints";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::vector<std::string> lines;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    const std::string line(buf);
    if (line.rfind("fingerprint ", 0) == 0) lines.push_back(line);
  }
  ::pclose(pipe);
  return lines;
}

TEST(BlasParallel, WideShapesBitwiseAcrossPoolSizes) {
  const std::vector<std::string> one = fingerprints_at(1);
  ASSERT_EQ(one.size(), wide_shapes().size() * 6);
  for (int threads : {2, 4}) {
    const std::vector<std::string> many = fingerprints_at(threads);
    ASSERT_EQ(many.size(), one.size()) << threads << " threads";
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i], one[i]) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace arams::linalg
