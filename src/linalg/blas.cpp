#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace arams::linalg {

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  ARAMS_DCHECK(x.size() == y.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void scale(std::span<double> x, double alpha) {
  for (auto& v : x) v *= alpha;
}

double dot(std::span<const double> x, std::span<const double> y) {
  ARAMS_DCHECK(x.size() == y.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += x[i] * y[i];
  }
  return s;
}

double dot(std::span<const float> x, std::span<const float> y) {
  ARAMS_DCHECK(x.size() == y.size(), "dot size mismatch");
  // fp32 lane: eight independent double accumulators so the reduction is
  // bandwidth- rather than FMA-latency-bound. The fp64 dot above keeps its
  // bitwise-frozen serial order; this overload is new with the fp32 lane,
  // so its (still fully fp64) accumulation may take the fast shape.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    a1 += static_cast<double>(x[i + 1]) * static_cast<double>(y[i + 1]);
    a2 += static_cast<double>(x[i + 2]) * static_cast<double>(y[i + 2]);
    a3 += static_cast<double>(x[i + 3]) * static_cast<double>(y[i + 3]);
    a4 += static_cast<double>(x[i + 4]) * static_cast<double>(y[i + 4]);
    a5 += static_cast<double>(x[i + 5]) * static_cast<double>(y[i + 5]);
    a6 += static_cast<double>(x[i + 6]) * static_cast<double>(y[i + 6]);
    a7 += static_cast<double>(x[i + 7]) * static_cast<double>(y[i + 7]);
  }
  for (; i < n; ++i) {
    a0 += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
}

double norm2_squared(std::span<const double> x) { return dot(x, x); }

double norm2_squared(std::span<const float> x) { return dot(x, x); }

double norm2(std::span<const double> x) { return std::sqrt(norm2_squared(x)); }

namespace {

// Blocking parameters. KC×NC is the packed B panel (≤ 1 MiB, resident in
// L2 while every row band streams over it); MR is the register block: the
// micro-kernel keeps MR C-rows live and reads each packed B element once
// per MR rows instead of once per row, cutting B traffic MR-fold. A row's
// result depends only on its MR-aligned tile, so row blocks that start at
// multiples of MR reproduce the whole product bitwise.
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 512;
constexpr std::size_t kMr = 4;

// Calls above this many flops (2·m·n·k for GEMM, m²·d for Gram) fan out
// across the shared pool; below it they stay sequential so the small
// shapes FD produces at modest ℓ pay no dispatch overhead.
constexpr double kParallelFlopThreshold = 8e6;

// Grow-only, per-thread packing scratch: steady-state kernel calls never
// allocate. GEMM packs A panels into pack_a and B panels into pack_b, each
// on the thread that runs the tile.
std::vector<double>& pack_a_scratch() {
  thread_local std::vector<double> buf;
  return buf;
}
std::vector<double>& pack_b_scratch() {
  thread_local std::vector<double> buf;
  return buf;
}

/// The pool a call of `flops` dispatches to, or nullptr for the serial
/// path: below the threshold, on a one-thread pool, and on one of the
/// pool's own workers, where parallel_for would run the tasks inline.
parallel::ThreadPool* maybe_pool(double flops) {
  if (flops < kParallelFlopThreshold) return nullptr;
  parallel::ThreadPool& pool = parallel::shared_pool();
  if (pool.thread_count() < 2 || pool.on_worker_thread()) return nullptr;
  return &pool;
}

void count_dispatch() {
  static obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  dispatches.add(1);
}

/// Packs Bop[pc..pc+kb) × [jc..jc+jb) into dst, kb rows of jb contiguous
/// doubles. Bop(p, j) = b[p·brs + j·bcs].
void pack_b_panel(const double* b, std::size_t brs, std::size_t bcs,
                  std::size_t pc, std::size_t jc, std::size_t kb,
                  std::size_t jb, double* dst) {
  for (std::size_t p = 0; p < kb; ++p) {
    const double* src = b + (pc + p) * brs + jc * bcs;
    double* out = dst + p * jb;
    if (bcs == 1) {
      std::copy(src, src + jb, out);
    } else {
      for (std::size_t j = 0; j < jb; ++j) {
        out[j] = src[j * bcs];
      }
    }
  }
}

/// Where the GEMM reads Aop: Aop(i, p) = a[i·rs + p·cs], or, when `rows`
/// is set, rows[i][p·cs] (the rows of a matrix that is never formed).
struct ASource {
  const double* a;
  std::size_t rs;
  std::size_t cs;
  const double* const* rows = nullptr;

  [[nodiscard]] const double* row(std::size_t i) const {
    return rows != nullptr ? rows[i] : a + i * rs;
  }
};

/// Packs rows [i, i+mr) × cols [pc, pc+kb) of Aop into dst, mr rows of kb
/// contiguous doubles.
void pack_a_panel(const ASource& a, std::size_t i, std::size_t pc,
                  std::size_t mr, std::size_t kb, double* dst) {
  const std::size_t acs = a.cs;
  for (std::size_t r = 0; r < mr; ++r) {
    const double* src = a.row(i + r) + pc * acs;
    double* out = dst + r * kb;
    if (acs == 1) {
      std::copy(src, src + kb, out);
    } else {
      for (std::size_t p = 0; p < kb; ++p) {
        out[p] = src[p * acs];
      }
    }
  }
}

// Register tile width of the micro-kernel's j dimension: 4×8 doubles of C
// accumulators (8 vector registers at AVX width) stay live across the
// whole k panel, so each C element is touched once per panel instead of
// once per p — the kernel reads 4 A broadcasts + 2 B vectors per 8 FMAs
// rather than re-streaming C rows through L1 every step.
constexpr std::size_t kJr = 8;

// GCC/Clang generic vector of 4 doubles. `aligned(8)` makes loads/stores
// through v4df* legal at any double boundary (packed panels and C rows are
// only 8-byte aligned); the compiler lowers it to unaligned vector moves —
// or pairs of 128-bit ops on baseline ISAs — element-wise arithmetic in
// the same order as the scalar loops it replaces.
typedef double v4df __attribute__((vector_size(32), aligned(8)));

inline v4df v4_broadcast(double x) { return v4df{x, x, x, x}; }

/// One C row of a kb-long k panel: c[j] = Σ_p a[p]·bp[p·ldb + j] for
/// j < jb, summed from +0.0 in p order (stored when `first`, else added).
/// This is the micro-kernel's generic tail row and all of matmul_nt_row.
/// It is kept as one out-of-line body (never inlined or cloned) so both
/// callers run the same machine code: the compiler decides how to
/// contract the reduction (GCC 12 at x86-64-v3 sums pairs of unfused
/// products and fuses the last product of an odd-length panel), and both
/// get that same decision.
#if defined(__clang__)
[[gnu::noinline]]
#else
[[gnu::noipa]]
#endif
void row_panel(const double* a, std::size_t kb, const double* bp,
               std::size_t ldb, std::size_t jb, double* c, bool first) {
  for (std::size_t j = 0; j < jb; ++j) {
    double s = 0.0;
    const double* b = bp + j;
    for (std::size_t p = 0; p < kb; ++p, b += ldb) {
      s += a[p] * *b;
    }
    if (first) {
      c[j] = s;
    } else {
      c[j] += s;
    }
  }
}

/// C rows [i, i+mr): mr×jb tile accumulated from a packed mr×kb A panel and
/// a packed kb×jb B panel. The mr == kMr fast path walks jb in kJr-wide
/// register tiles; the generic tail (mr < 4, last tile only) loops.
///
/// `first` marks the first k panel (pc == 0): the finished accumulator is
/// *stored* instead of added into pre-zeroed memory. That skips both the
/// fill pass and one full read of C — for the inner dimensions this
/// pipeline runs (k ≤ kKc, a single k panel) it cuts C traffic from three
/// sweeps to one, which is most of the wall time of a memory-bound product
/// like a pairwise-distance Gram block. Accumulators start at +0.0, so the
/// first-panel result is bit-identical to the historical
/// fill-then-accumulate form (0.0 + x canonicalizes -0.0 products exactly
/// as accumulating into zeroed memory did).
void micro_kernel(const double* am, std::size_t kb, const double* bp,
                  std::size_t jb, double* c0, std::size_t ldc,
                  std::size_t mr, bool first) {
  if (mr == kMr) {
    double* __restrict r0 = c0;
    double* __restrict r1 = c0 + ldc;
    double* __restrict r2 = c0 + 2 * ldc;
    double* __restrict r3 = c0 + 3 * ldc;
    std::size_t j0 = 0;
    for (; j0 + kJr <= jb; j0 += kJr) {
      v4df acc00{}, acc01{}, acc10{}, acc11{};
      v4df acc20{}, acc21{}, acc30{}, acc31{};
      const double* __restrict b = bp + j0;
      for (std::size_t p = 0; p < kb; ++p, b += jb) {
        const v4df b0 = *reinterpret_cast<const v4df*>(b);
        const v4df b1 = *reinterpret_cast<const v4df*>(b + 4);
        const v4df a0 = v4_broadcast(am[p]);
        acc00 += a0 * b0;
        acc01 += a0 * b1;
        const v4df a1 = v4_broadcast(am[kb + p]);
        acc10 += a1 * b0;
        acc11 += a1 * b1;
        const v4df a2 = v4_broadcast(am[2 * kb + p]);
        acc20 += a2 * b0;
        acc21 += a2 * b1;
        const v4df a3 = v4_broadcast(am[3 * kb + p]);
        acc30 += a3 * b0;
        acc31 += a3 * b1;
      }
      const auto store = [first](double* c, v4df lo, v4df hi) {
        v4df* clo = reinterpret_cast<v4df*>(c);
        v4df* chi = reinterpret_cast<v4df*>(c + 4);
        if (first) {
          *clo = lo;
          *chi = hi;
        } else {
          *clo += lo;
          *chi += hi;
        }
      };
      store(r0 + j0, acc00, acc01);
      store(r1 + j0, acc10, acc11);
      store(r2 + j0, acc20, acc21);
      store(r3 + j0, acc30, acc31);
    }
    for (; j0 < jb; ++j0) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      const double* b = bp + j0;
      for (std::size_t p = 0; p < kb; ++p, b += jb) {
        const double bv = *b;
        s0 += am[p] * bv;
        s1 += am[kb + p] * bv;
        s2 += am[2 * kb + p] * bv;
        s3 += am[3 * kb + p] * bv;
      }
      if (first) {
        r0[j0] = s0;
        r1[j0] = s1;
        r2[j0] = s2;
        r3[j0] = s3;
      } else {
        r0[j0] += s0;
        r1[j0] += s1;
        r2[j0] += s2;
        r3[j0] += s3;
      }
    }
    return;
  }
  for (std::size_t r = 0; r < mr; ++r) {
    row_panel(am + r * kb, kb, bp, jb, jb, c0 + r * ldc, first);
  }
}

/// out = Aop · Bop where Aop (m×k) is read through `a` (ASource) and
/// Bop(p,j) = b[p·brs + j·bcs] (k×n). One strided entry point serves NN,
/// TN and NT products — only the stride pairs differ — and products over
/// rows given by pointer. A is only ever read by pack_a_panel, so where
/// its rows live cannot change a result.
///
/// The parallel axis is chosen once per call from the shape:
///  * column blocks — when there are at least as many NC column blocks as
///    MR row tiles (the d ≫ ℓ short-fat products of an FD shrink and the
///    rank-adaptive probes): one task per block packs its own B panels and
///    runs every KC panel and row tile, so the pool is entered once;
///  * row bands — otherwise: the caller packs each (NC, KC) B panel and
///    the pool splits its row tiles;
///  * serial — below the flop threshold, on a 1-thread pool, or when
///    neither axis offers at least one unit per pool thread (e.g. the
///    K-dominant 10×32, k = 16384 probe product).
/// Every C element sees the same (jc, pc, p) accumulation sequence under
/// all three, so results are bitwise identical at any pool size.
void gemm_strided(std::size_t m, std::size_t n, std::size_t k,
                  const ASource& a, const double* b, std::size_t brs,
                  std::size_t bcs, Matrix& out) {
  out.reshape(m, n);
  if (m == 0 || n == 0 || k == 0) {
    out.fill(0.0);
    return;
  }
  double* c = out.data();
  const std::size_t tiles = (m + kMr - 1) / kMr;
  const std::size_t col_blocks = (n + kNc - 1) / kNc;

  // Row tiles [t0, t1) of one packed (jc, pc) panel, A packed per thread.
  const auto run_tiles = [&](std::size_t jc, std::size_t jb, std::size_t pc,
                             std::size_t kb, const double* bp,
                             std::size_t t0, std::size_t t1) {
    std::vector<double>& abuf = pack_a_scratch();
    if (abuf.size() < kMr * kb) abuf.resize(kMr * kb);
    const std::size_t i1 = std::min(t1 * kMr, m);
    for (std::size_t i = t0 * kMr; i < i1; i += kMr) {
      const std::size_t mr = std::min(kMr, i1 - i);
      pack_a_panel(a, i, pc, mr, kb, abuf.data());
      micro_kernel(abuf.data(), kb, bp, jb, c + i * n + jc, n, mr, pc == 0);
    }
  };
  const auto pack_b = [&](std::size_t jc, std::size_t jb, std::size_t pc,
                          std::size_t kb) {
    std::vector<double>& bbuf = pack_b_scratch();
    if (bbuf.size() < kb * jb) bbuf.resize(kb * jb);
    pack_b_panel(b, brs, bcs, pc, jc, kb, jb, bbuf.data());
    return static_cast<const double*>(bbuf.data());
  };
  // Column block `blk`: every KC panel over every row tile.
  const auto run_block = [&](std::size_t blk) {
    const std::size_t jc = blk * kNc;
    const std::size_t jb = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kb = std::min(kKc, k - pc);
      run_tiles(jc, jb, pc, kb, pack_b(jc, jb, pc, kb), 0, tiles);
    }
  };

  parallel::ThreadPool* pool =
      maybe_pool(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                 static_cast<double>(k));
  const std::size_t threads = pool == nullptr ? 1 : pool->thread_count();
  if (std::max(col_blocks, tiles) < threads) pool = nullptr;

  if (pool == nullptr) {
    for (std::size_t blk = 0; blk < col_blocks; ++blk) run_block(blk);
    return;
  }
  count_dispatch();
  if (col_blocks >= tiles) {
    pool->parallel_for(col_blocks, run_block);
    return;
  }
  // Row bands: boundaries are whole tiles so none straddles two bands;
  // ~4 bands per worker lets the queue balance load.
  const std::size_t bands = std::min(tiles, threads * 4);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t jb = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kb = std::min(kKc, k - pc);
      const double* bp = pack_b(jc, jb, pc, kb);
      pool->parallel_for(bands, [&](std::size_t t) {
        run_tiles(jc, jb, pc, kb, bp, tiles * t / bands,
                  tiles * (t + 1) / bands);
      });
    }
  }
}

/// Aop(i,p) = a[i·ars + p·acs].
void gemm_strided(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t ars, std::size_t acs,
                  const double* b, std::size_t brs, std::size_t bcs,
                  Matrix& out) {
  gemm_strided(m, n, k, ASource{a, ars, acs}, b, brs, bcs, out);
}

/// Symmetric product helper: fills the upper triangle of out (n×n) with
/// 4×4 dot tiles over `len` terms, then mirrors. `ptr(i)` must return a
/// pointer p_i with Gram(i, j) = Σ_t p_i[t·stride]·p_j[t·stride].
template <typename PtrFn>
void gram_tiled(std::size_t n, std::size_t len, std::size_t stride,
                double flops, const PtrFn& ptr, Matrix& out) {
  out.reshape(n, n);
  if (n == 0) return;
  if (len == 0) {
    out.fill(0.0);
    return;
  }
  parallel::ThreadPool* pool = maybe_pool(flops);
  const std::size_t tiles = (n + kMr - 1) / kMr;

  // One task per 4-row tile of the upper triangle; out-of-range lanes are
  // clamped to the last row so the 4×4 accumulator loop stays branch-free
  // (their results are simply not stored).
  const auto do_tile_row = [&](std::size_t ti) {
    const std::size_t i0 = ti * kMr;
    const std::size_t mr = std::min(kMr, n - i0);
    const double* rp[kMr];
    for (std::size_t r = 0; r < kMr; ++r) {
      rp[r] = ptr(std::min(i0 + r, n - 1));
    }
    for (std::size_t j0 = i0; j0 < n; j0 += kMr) {
      const std::size_t nr = std::min(kMr, n - j0);
      const double* cq[kMr];
      for (std::size_t q = 0; q < kMr; ++q) {
        cq[q] = ptr(std::min(j0 + q, n - 1));
      }
      double acc[kMr][kMr] = {};
      for (std::size_t t = 0; t < len; ++t) {
        const std::size_t off = t * stride;
        const double av[kMr] = {rp[0][off], rp[1][off], rp[2][off],
                                rp[3][off]};
        const double bv[kMr] = {cq[0][off], cq[1][off], cq[2][off],
                                cq[3][off]};
        for (std::size_t r = 0; r < kMr; ++r) {
          for (std::size_t q = 0; q < kMr; ++q) {
            acc[r][q] += av[r] * bv[q];
          }
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        for (std::size_t q = 0; q < nr; ++q) {
          out(i0 + r, j0 + q) = acc[r][q];
        }
      }
    }
  };

  if (pool == nullptr) {
    for (std::size_t ti = 0; ti < tiles; ++ti) do_tile_row(ti);
  } else {
    count_dispatch();
    pool->parallel_for(tiles, do_tile_row);
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      out(i, j) = out(j, i);
    }
  }
}

}  // namespace

void matmul(MatrixView a, MatrixView b, Matrix& out) {
  ARAMS_CHECK(a.cols() == b.rows(), "matmul inner dimension mismatch");
  gemm_strided(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1,
               b.data(), b.cols(), 1, out);
}

Matrix matmul(MatrixView a, MatrixView b) {
  Matrix out;
  matmul(a, b, out);
  return out;
}

void matmul_tn(MatrixView a, MatrixView b, Matrix& out) {
  ARAMS_CHECK(a.rows() == b.rows(), "matmul_tn dimension mismatch");
  // Aop = Aᵀ: Aop(i,p) = a(p,i) → row stride 1, column stride a.cols().
  gemm_strided(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(),
               b.data(), b.cols(), 1, out);
}

Matrix matmul_tn(MatrixView a, MatrixView b) {
  Matrix out;
  matmul_tn(a, b, out);
  return out;
}

void matmul_nt(MatrixView a, MatrixView b, Matrix& out) {
  ARAMS_CHECK(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  // Bop = Bᵀ: Bop(p,j) = b(j,p) → row stride 1, column stride b.cols().
  gemm_strided(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), 1,
               b.data(), 1, b.cols(), out);
}

Matrix matmul_nt(MatrixView a, MatrixView b) {
  Matrix out;
  matmul_nt(a, b, out);
  return out;
}

void matmul_nt(std::span<const double* const> rows, MatrixView b,
               Matrix& out) {
  gemm_strided(rows.size(), b.rows(), b.cols(),
               ASource{nullptr, 0, 1, rows.data()}, b.data(), 1,
               b.cols(), out);
}

void matmul_nt_row(std::span<const double> a, const double* bt,
                   std::size_t ldb, std::span<double> out) {
  ARAMS_CHECK(ldb >= out.size(), "matmul_nt_row stride below row length");
  const std::size_t k = a.size();
  if (k == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // The k panels of gemm_strided, each one row_panel call as in its
  // one-row tiles; column blocking does not change any element's sum.
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    row_panel(a.data() + pc, std::min(kKc, k - pc), bt + pc * ldb, ldb,
              out.size(), out.data(), pc == 0);
  }
}

void gram_rows(MatrixView a, Matrix& out) {
  const std::size_t m = a.rows();
  const double flops = static_cast<double>(m) * static_cast<double>(m) *
                       static_cast<double>(a.cols());
  gram_tiled(
      m, a.cols(), 1, flops,
      [&](std::size_t i) { return a.data() + i * a.cols(); }, out);
}

Matrix gram_rows(MatrixView a) {
  Matrix out;
  gram_rows(a, out);
  return out;
}

void gram_cols(MatrixView a, Matrix& out) {
  const std::size_t n = a.cols();
  const double flops = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(a.rows());
  gram_tiled(
      n, a.rows(), n, flops, [&](std::size_t i) { return a.data() + i; },
      out);
}

Matrix gram_cols(MatrixView a) {
  Matrix out;
  gram_cols(a, out);
  return out;
}

void gemv(MatrixView a, std::span<const double> x, std::span<double> y) {
  ARAMS_CHECK(x.size() == a.cols() && y.size() == a.rows(),
              "gemv size mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = dot(a.row(i), x);
  }
}

void gemv_t(MatrixView a, std::span<const double> x, std::span<double> y) {
  ARAMS_CHECK(x.size() == a.rows() && y.size() == a.cols(),
              "gemv_t size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    axpy(x[i], a.row(i), y);
  }
}

double frobenius_norm_squared(MatrixView a) {
  double s = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    s += norm2_squared(a.row(r));
  }
  return s;
}

double frobenius_norm(MatrixView a) {
  return std::sqrt(frobenius_norm_squared(a));
}

}  // namespace arams::linalg
