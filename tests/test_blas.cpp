// Unit and property tests for the BLAS-like kernels. Property tests check
// algebraic identities on random matrices across a size sweep (TEST_P).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "pool_tasks.hpp"
#include "rerun_self.hpp"
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
// Tiled / packed kernels vs. a naive triple loop. The GEMM reorders the
// k-accumulation, so its results are not bit-identical to the reference —
// the contract is <= 1e-12 *relative* Frobenius error. The Gram keeps the
// naive order (pinned bitwise by GramBits below); it is held to the same
// tolerance here.

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

// ---------------------------------------------------------------------------
// The Gram's bit contract: for i <= j,
//   G(i, j) = ((+0.0 + x_i[0]·x_j[0]) + x_i[1]·x_j[1]) + …
// summed in t order with each product rounded before its add, and the
// lower triangle mirrors the upper. gram_oracle is that loop, entry by
// entry. This file is built with -ffp-contract=off (tests/CMakeLists.txt),
// so the oracle stays unfused in every build.

Matrix gram_oracle(const Matrix& x) {
  const std::size_t n = x.rows();
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < x.cols(); ++t) s += x(i, t) * x(j, t);
      g(i, j) = s;
      g(j, i) = s;
    }
  }
  return g;
}

/// The bits of v, with every NaN as the one quiet NaN: which NaN an
/// operation on two NaNs returns follows the operand order the compiler
/// picks for that instruction, so a NaN's sign and payload are not part of
/// the contract; where the NaNs are is.
std::uint64_t contract_bits(double v) {
  return std::isnan(v) ? std::bit_cast<std::uint64_t>(
                             std::numeric_limits<double>::quiet_NaN())
                       : std::bit_cast<std::uint64_t>(v);
}

/// Index of the first entry whose contract bits differ, or -1.
long first_bit_difference(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (contract_bits(got.data()[i]) != contract_bits(want.data()[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

/// Gram operands of n vectors of len terms. Kind 0: N(0, 1). Kind 1:
/// ±1e8 + N(0, 1), whose sums cancel, so any other order shows. Kind 2:
/// rows scaled by 2⁶⁰⁰, 2⁻⁶⁰⁰ or 2⁻⁵³⁰, so products overflow, underflow
/// and go subnormal. Kind 3: N(0, 1) with NaN, ±inf and ±0 scattered, one
/// row of -0.0 against one of positive values (their products are all
/// -0.0, so the +0.0 start shows) where n >= 3.
Matrix gram_operand(std::size_t n, std::size_t len, int kind, Rng& rng) {
  Matrix x = random_matrix(n, len, rng);
  if (kind == 1) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] += rng.uniform() < 0.5 ? -1e8 : 1e8;
    }
  } else if (kind == 2) {
    const double scales[] = {0x1p600, 0x1p-600, 1.0, 0x1p-530};
    for (std::size_t i = 0; i < n; ++i) {
      for (double& v : x.row(i)) v *= scales[i % 4];
    }
  } else if (kind == 3) {
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               0.0, -0.0};
    for (std::size_t c = 0; c < 1 + x.size() / 256; ++c) {
      x.data()[rng.uniform_index(x.size())] =
          specials[rng.uniform_index(std::size(specials))];
    }
    if (n >= 3) {
      for (double& v : x.row(1)) v = -0.0;
      for (double& v : x.row(2)) v = std::abs(v) + 1.0;
    }
  }
  return x;
}

/// Every operand shape and kind through gram_rows, gram_cols of the
/// transpose and gram_rows of a row view between NaN rows, each into one
/// reused `out` that holds the previous call's entries. Every result must
/// have the oracle's contract bits; returns the digest of them all.
std::uint64_t gram_bit_sweep() {
  const std::size_t ns[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  15, 16,
                            17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 129};
  const std::size_t lens[] = {1, 2, 3, 7, 10, 255, 256, 257, 4096};
  std::uint64_t digest = 0xcbf29ce484222325ull;
  Matrix out;
  for (const std::size_t n : ns) {
    for (const std::size_t len : lens) {
      for (int kind = 0; kind < 4; ++kind) {
        Rng rng(n * 1000003 + len * 31 + static_cast<std::size_t>(kind));
        const Matrix x = gram_operand(n, len, kind, rng);
        const Matrix want = gram_oracle(x);
        Matrix padded(n + 5, len);
        for (std::size_t i = 0; i < padded.size(); ++i) {
          padded.data()[i] = std::numeric_limits<double>::quiet_NaN();
        }
        for (std::size_t i = 0; i < n; ++i) padded.set_row(i + 2, x.row(i));
        const std::string what = "n " + std::to_string(n) + " len " +
                                 std::to_string(len) + " kind " +
                                 std::to_string(kind);
        for (int form = 0; form < 3; ++form) {
          if (form == 0) gram_rows(x, out);
          if (form == 1) gram_cols(x.transposed(), out);
          if (form == 2) gram_rows(MatrixView::rows_of(padded, 2, 2 + n), out);
          EXPECT_EQ(first_bit_difference(out, want), -1)
              << what << " form " << form;
          for (std::size_t i = 0; i < out.size(); ++i) {
            const std::uint64_t bits = contract_bits(out.data()[i]);
            digest = test::fnv1a(&bits, sizeof bits, digest);
          }
        }
      }
    }
  }
  return digest;
}

TEST(GramBits, EqualsTheSequentialUnfusedSum) {
  // Shapes around every tile (4 rows × 8 columns) and chunk (256 terms)
  // edge, serial and above the pool threshold (n²·len >= 8·10⁶); a child
  // process re-runs the sweep at pool sizes 1 and 4 and must print the
  // same digest.
  const std::uint64_t digest = gram_bit_sweep();
  test::print_pool_digest(parallel::shared_pool().thread_count(), digest);
  if (std::getenv("ARAMS_GRAM_BITS_CHILD") != nullptr) return;
  test::expect_digest_at_pool_sizes(
      "ARAMS_GRAM_BITS_CHILD", "GramBits.EqualsTheSequentialUnfusedSum",
      digest);
}

TEST(GramBits, SameBitsOnAPoolWorker) {
  // On a pool worker the call takes the serial path: same bits.
  Rng rng(26);
  const Matrix a = gram_operand(65, 4096, 1, rng);
  const Matrix caller = gram_rows(a);
  Matrix worker;
  parallel::shared_pool().parallel_for(
      1, [&](std::size_t) { worker = gram_rows(a); });
  EXPECT_EQ(first_bit_difference(worker, caller), -1);
  EXPECT_EQ(first_bit_difference(caller, gram_oracle(a)), -1);
}

TEST(GramBits, PooledCallEntersThePoolOnce) {
  // 64² · 4096 ≈ 1.7·10⁷ flops, above the threshold: one dispatch, and at
  // most one item per pool thread, whatever the number of term chunks.
  ASSERT_TRUE(kPoolEnvForced);
  const std::size_t threads = parallel::shared_pool().thread_count();
  Rng rng(27);
  const Matrix a = random_matrix(64, 4096, rng);
  const Matrix at = a.transposed();
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  for (const bool rows : {true, false}) {
    Matrix g;
    const long before = dispatches.value();
    const long items = test::pool_items_of([&] {
      if (rows) {
        gram_rows(a, g);
      } else {
        gram_cols(at, g);
      }
    });
    if (threads >= 2) {
      EXPECT_EQ(dispatches.value(), before + 1) << "rows " << rows;
      EXPECT_GE(items, 2) << "rows " << rows;
      EXPECT_LE(items, static_cast<long>(threads)) << "rows " << rows;
    } else {
      EXPECT_EQ(dispatches.value(), before) << "rows " << rows;
      EXPECT_EQ(items, 0) << "rows " << rows;
    }
  }
}

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
  // On a pool worker parallel_for would run the items inline, so the call
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
  parallel::shared_pool().parallel_for(
      1, [&](std::size_t) { worker = matmul(a, b); });
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

// ------------------------------------------------ fp32 vector kernels

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
  // Row-band shapes: the health check's R·Vᵀ (256-row reservoir against an
  // ℓ = 32 basis at d = 16384) and project_rows' 4608 frames onto 10
  // components at d = 4096.
  shapes.push_back({256, 32, 16384});
  shapes.push_back({4608, 10, 4096});
  return shapes;
}

std::string shape_name(const WideShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k);
}

/// fp64 operand whose entries are fp32-representable — the operands these
/// shapes have always been fingerprinted on.
Matrix representable_matrix(std::size_t r, std::size_t c, Rng& rng) {
  return narrow_matrix(random_matrix(r, c, rng)).to_matrix();
}

struct WideProducts {
  Matrix naive_nn, naive_tn, naive_nt;
  std::vector<std::pair<std::string, Matrix>> got;  ///< variant → product
};

/// NN, TN and NT in fp64, for one shape.
WideProducts wide_products(const WideShape& s, bool with_naive) {
  Rng rng(s.m * 1000003 + s.n * 101 + s.k);
  const Matrix a = representable_matrix(s.m, s.k, rng);   // Aop for NN/NT
  const Matrix at = representable_matrix(s.k, s.m, rng);  // Aᵀ stored, TN
  const Matrix b = representable_matrix(s.k, s.n, rng);   // Bop for NN/TN
  const Matrix bt = representable_matrix(s.n, s.k, rng);  // Bᵀ stored, NT

  WideProducts out;
  out.got.emplace_back("nn", matmul(a, b));
  out.got.emplace_back("tn", matmul_tn(at, b));
  out.got.emplace_back("nt", matmul_nt(a, bt));
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
      const Matrix& want = variant == "nn"   ? p.naive_nn
                           : variant == "tn" ? p.naive_tn
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

TEST(BlasParallel, RowBandCallEntersThePoolOncePerColumnBlock) {
  // A row-band product packs each column block's KC panels on the caller
  // and runs at most min(tiles, 4·threads) band items per column block,
  // whatever k is; the bits equal the serial call's on a pool worker.
  ASSERT_TRUE(kPoolEnvForced);
  const std::size_t threads = parallel::shared_pool().thread_count();
  if (threads < 2) GTEST_SKIP() << "needs a pooled call";
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  for (const WideShape s : {WideShape{256, 32, 16384},
                            WideShape{4608, 10, 4096},
                            WideShape{1024, 1030, 64}}) {
    Rng rng(s.m + s.n + s.k);
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix bt = random_matrix(s.n, s.k, rng);
    const std::size_t tiles = (s.m + 3) / 4;
    const std::size_t blocks = (s.n + 511) / 512;
    ASSERT_LT(blocks, tiles) << shape_name(s);
    Matrix pooled;
    const long before = dispatches.value();
    const long items =
        test::pool_items_of([&] { matmul_nt(a, bt, pooled); });
    EXPECT_EQ(dispatches.value(), before + 1) << shape_name(s);
    EXPECT_GE(items, static_cast<long>(blocks)) << shape_name(s);
    EXPECT_LE(items, static_cast<long>(
                         blocks * std::min(tiles, 4 * threads)))
        << shape_name(s);
    Matrix serial;
    parallel::shared_pool().parallel_for(
        1, [&](std::size_t) { matmul_nt(a, bt, serial); });
    EXPECT_EQ(fingerprint(pooled), fingerprint(serial)) << shape_name(s);
  }
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
  ASSERT_EQ(one.size(), wide_shapes().size() * 3);
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
