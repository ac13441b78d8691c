// The Gram kernel behind gram_rows and gram_cols: a packed, register-tiled
// product of a set of vectors with itself, upper triangle only.
//
// Every entry keeps one summation order: for i ≤ j,
//   G(i, j) = ((+0.0 + x_i[0]·x_j[0]) + x_i[1]·x_j[1]) + …
// summed in t order, each product rounded before its add. This file is
// built with -ffp-contract=off (src/linalg/CMakeLists.txt), so no build,
// vector ISA or sanitizer lane fuses a product into its add. The lower
// triangle is mirrored from the upper, so G is exactly symmetric.
//
// The upper triangle is cut into 4×8 tiles, rows i0…i0+3 × columns
// j0…j0+7, one for every i0 < j0 + 8. The terms run in 256-long chunks,
// chunk-outer: each chunk of a group of 8 columns is packed t-major into a
// 16 KiB panel, the tile's 4 row values are broadcast straight from the
// operand, and its 8 four-wide accumulators stay in registers for the
// whole chunk. Between chunks they live in `out`, so the sum of every
// entry runs through the same adds in the same order whatever the chunk,
// tile or band boundaries. A pooled call cuts the tiles into one run per
// pool thread, balanced by tile count.

#include <algorithm>
#include <cstddef>

#include "linalg/blas.hpp"
#include "linalg/dispatch.hpp"
#include "parallel/thread_pool.hpp"

namespace arams::linalg {
namespace {

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;
constexpr std::size_t kChunk = 256;

// GCC/Clang generic vector of 4 doubles, as in blas.cpp: loads and stores
// through v4df* are legal at any double boundary, and the arithmetic is
// element-wise in the order written.
typedef double v4df __attribute__((vector_size(32), aligned(8)));

/// The vectors of a Gram: x_i[t] = base[i·vs + t·ts] for i < n, t < len.
struct Vectors {
  const double* base;
  std::size_t n;
  std::size_t len;
  std::size_t vs;
  std::size_t ts;

  [[nodiscard]] const double* at(std::size_t i, std::size_t t) const {
    return base + i * vs + t * ts;
  }
};

/// Packs terms [t0, t0 + kb) of vectors j0…j0+7 t-major:
/// panel[t·8 + q] = x_{j0+q}[t0 + t], and 0 for vectors past n.
void pack_panel(const Vectors& x, std::size_t j0, std::size_t t0,
                std::size_t kb, double* panel) {
  const std::size_t nc = std::min(kTileCols, x.n - j0);
  for (std::size_t t = 0; t < kb; ++t) {
    const double* src = x.at(j0, t0 + t);
    double* dst = panel + t * kTileCols;
    for (std::size_t q = 0; q < nc; ++q) dst[q] = src[q * x.vs];
    for (std::size_t q = nc; q < kTileCols; ++q) dst[q] = 0.0;
  }
}

/// One 4×8 tile over one chunk of kb terms. Row r reads its terms at
/// xr[r][t·ts]; for q < 8, c[r·ldc + q] += xr[r][t·ts]·panel[t·8 + q] in
/// t order, starting from +0.0 when `first` and from c otherwise.
void tile_chunk(const double* const* xr, std::size_t ts,
                const double* panel, std::size_t kb, double* c,
                std::size_t ldc, bool first) {
  v4df* c0 = reinterpret_cast<v4df*>(c);
  v4df* c1 = reinterpret_cast<v4df*>(c + ldc);
  v4df* c2 = reinterpret_cast<v4df*>(c + 2 * ldc);
  v4df* c3 = reinterpret_cast<v4df*>(c + 3 * ldc);
  v4df s00{}, s01{}, s10{}, s11{}, s20{}, s21{}, s30{}, s31{};
  if (!first) {
    s00 = c0[0];
    s01 = c0[1];
    s10 = c1[0];
    s11 = c1[1];
    s20 = c2[0];
    s21 = c2[1];
    s30 = c3[0];
    s31 = c3[1];
  }
  const double* __restrict x0 = xr[0];
  const double* __restrict x1 = xr[1];
  const double* __restrict x2 = xr[2];
  const double* __restrict x3 = xr[3];
  const double* __restrict b = panel;
  for (std::size_t t = 0, o = 0; t < kb; ++t, o += ts, b += kTileCols) {
    const v4df b0 = *reinterpret_cast<const v4df*>(b);
    const v4df b1 = *reinterpret_cast<const v4df*>(b + 4);
    const v4df a0 = {x0[o], x0[o], x0[o], x0[o]};
    s00 += a0 * b0;
    s01 += a0 * b1;
    const v4df a1 = {x1[o], x1[o], x1[o], x1[o]};
    s10 += a1 * b0;
    s11 += a1 * b1;
    const v4df a2 = {x2[o], x2[o], x2[o], x2[o]};
    s20 += a2 * b0;
    s21 += a2 * b1;
    const v4df a3 = {x3[o], x3[o], x3[o], x3[o]};
    s30 += a3 * b0;
    s31 += a3 * b1;
  }
  c0[0] = s00;
  c0[1] = s01;
  c1[0] = s10;
  c1[1] = s11;
  c2[0] = s20;
  c2[1] = s21;
  c3[0] = s30;
  c3[1] = s31;
}

/// The row tiles of column group g: i0 = 0, 4, … below min(n, 8g + 8).
std::size_t group_tiles(std::size_t n, std::size_t g) {
  return (std::min(n, (g + 1) * kTileCols) + kTileRows - 1) / kTileRows;
}

/// Tiles [lo, hi) of the (column group, row tile) order, over every chunk.
/// Rows past n read row n − 1 and columns past n read zeros; only entries
/// inside n×n are stored.
void run_tiles(const Vectors& x, std::size_t lo, std::size_t hi,
               Matrix& out) {
  // pack_panel writes every panel entry a chunk reads; an edge tile's
  // lanes outside n×n hold whatever they last held and are never stored.
  alignas(32) double panel[kChunk * kTileCols];
  alignas(32) double edge[kTileRows * kTileCols] = {};
  const std::size_t n = x.n;
  double* g_out = out.data();
  for (std::size_t t0 = 0; t0 < x.len; t0 += kChunk) {
    const std::size_t kb = std::min(kChunk, x.len - t0);
    const bool first = t0 == 0;
    std::size_t start = 0;  // index of group g's first tile
    for (std::size_t g = 0; start < hi; ++g) {
      const std::size_t count = group_tiles(n, g);
      const std::size_t k0 = lo > start ? lo - start : 0;
      const std::size_t k1 = std::min(hi - start, count);
      start += count;
      if (k0 >= k1) continue;
      const std::size_t j0 = g * kTileCols;
      pack_panel(x, j0, t0, kb, panel);
      for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t i0 = k * kTileRows;
        const double* xr[kTileRows];
        for (std::size_t r = 0; r < kTileRows; ++r) {
          xr[r] = x.at(std::min(i0 + r, n - 1), t0);
        }
        double* c = g_out + i0 * n + j0;
        if (i0 + kTileRows <= n && j0 + kTileCols <= n) {
          tile_chunk(xr, x.ts, panel, kb, c, n, first);
          continue;
        }
        const std::size_t mr = std::min(kTileRows, n - i0);
        const std::size_t nr = std::min(kTileCols, n - j0);
        if (!first) {
          for (std::size_t r = 0; r < mr; ++r) {
            std::copy(c + r * n, c + r * n + nr, edge + r * kTileCols);
          }
        }
        tile_chunk(xr, x.ts, panel, kb, edge, kTileCols, first);
        for (std::size_t r = 0; r < mr; ++r) {
          std::copy(edge + r * kTileCols, edge + r * kTileCols + nr,
                    c + r * n);
        }
      }
    }
  }
}

void gram(const Vectors& x, Matrix& out) {
  const std::size_t n = x.n;
  out.reshape(n, n);
  if (n == 0) return;
  if (x.len == 0) {
    out.fill(0.0);
    return;
  }
  std::size_t tiles = 0;
  for (std::size_t g = 0; g * kTileCols < n; ++g) tiles += group_tiles(n, g);

  parallel::ThreadPool* pool = detail::maybe_pool(
      static_cast<double>(n) * static_cast<double>(n) *
      static_cast<double>(x.len));
  if (pool == nullptr) {
    run_tiles(x, 0, tiles, out);
  } else {
    // One pool entry: a run of tiles per thread. Tiles own disjoint
    // entries and each sums in t order, so any cut gives the same bits.
    detail::count_dispatch();
    const std::size_t bands = std::min(tiles, pool->thread_count());
    pool->parallel_for(bands, [&](std::size_t b) {
      run_tiles(x, tiles * b / bands, tiles * (b + 1) / bands, out);
    });
  }

  double* g_out = out.data();
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) g_out[i * n + j] = g_out[j * n + i];
  }
}

}  // namespace

void gram_rows(MatrixView a, Matrix& out) {
  gram({a.data(), a.rows(), a.cols(), a.cols(), 1}, out);
}

Matrix gram_rows(MatrixView a) {
  Matrix out;
  gram_rows(a, out);
  return out;
}

void gram_cols(MatrixView a, Matrix& out) {
  gram({a.data(), a.cols(), a.rows(), 1, a.cols()}, out);
}

Matrix gram_cols(MatrixView a) {
  Matrix out;
  gram_cols(a, out);
  return out;
}

}  // namespace arams::linalg
