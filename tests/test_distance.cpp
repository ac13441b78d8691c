// Shared distance engine (embed/distance.hpp): GEMM-backed blocks must
// match the naive per-pair loops to rounding, parallel and serial runs must
// agree bitwise, and workspace-backed steady-state calls must not allocate.
//
// The allocation check overrides global operator new/delete in this
// translation unit only (each gtest binary is its own process, so the
// override is hermetic) — same pattern as test_workspace.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "embed/metrics.hpp"
#include "embed/umap.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "random_knn_graph.hpp"
#include "rng/rng.hpp"

namespace {
std::atomic<long> g_heap_allocations{0};

// The engine's parallel paths go through the shared pool, whose size is
// frozen on first use — pin it before any test touches it so the
// parallel-vs-serial cases exercise real multi-thread execution even on a
// single-core CI box.
const int g_pool_env = ::setenv("ARAMS_POOL_THREADS", "4", 0);
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a), n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace arams::embed {
namespace {

using linalg::Matrix;
using linalg::MatrixView;
using linalg::Workspace;

Matrix random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  Matrix m(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) rng.fill_normal(m.row(i));
  return m;
}

void expect_rel_close(const Matrix& got, const Matrix& want, double tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double scale = std::max(1.0, std::abs(want(i, j)));
      EXPECT_NEAR(got(i, j), want(i, j), tol * scale)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(Distance, SqDistMatchesHandComputed) {
  const double a[] = {1.0, 2.0, -3.0};
  const double b[] = {0.0, 2.5, -1.0};
  EXPECT_DOUBLE_EQ(sq_dist(a, b), 1.0 + 0.25 + 4.0);
}

TEST(Distance, GemmMatchesNaiveOnOddShapes) {
  // Deliberately awkward shapes: single elements, non-multiples of every
  // register/block size, degenerate inner dimension.
  const struct {
    std::size_t xr, yr, d;
  } shapes[] = {{7, 13, 5}, {1, 1, 1}, {33, 17, 3}, {5, 9, 1}, {4, 130, 2}};
  for (const auto& s : shapes) {
    const Matrix x = random_points(s.xr, s.d, 101 + s.xr);
    const Matrix y = random_points(s.yr, s.d, 202 + s.yr);
    Workspace ws;
    Matrix fast, ref;
    pairwise_sq_dists(x, y, ws, fast, {.use_gemm = true});
    pairwise_sq_dists(x, y, ws, ref, {.use_gemm = false});
    expect_rel_close(fast, ref, 1e-10);
  }
}

TEST(Distance, GemmMatchesNaiveOnRowViews) {
  // Views into the middle of a larger buffer — the shape the blocked kNN
  // loop feeds the engine.
  const Matrix parent = random_points(60, 6, 77);
  const MatrixView x = MatrixView::rows_of(parent, 11, 30);
  const MatrixView y = MatrixView::rows_of(parent, 3, 58);
  Workspace ws;
  Matrix fast, ref;
  pairwise_sq_dists(x, y, ws, fast, {.use_gemm = true});
  pairwise_sq_dists(x, y, ws, ref, {.use_gemm = false});
  expect_rel_close(fast, ref, 1e-10);
}

TEST(Distance, SelfBlockDiagonalIsZero) {
  const Matrix x = random_points(40, 7, 5);
  Workspace ws;
  Matrix d;
  pairwise_sq_dists(x, x, ws, d, {});
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // The Gram trick can produce tiny negatives on exact-zero distances;
    // the engine clamps them.
    EXPECT_GE(d(i, i), 0.0);
    EXPECT_LT(d(i, i), 1e-10);
  }
}

TEST(Distance, ParallelAndSerialBlocksAreBitwiseIdentical) {
  // 600×600×40 clears both the GEMM flop threshold and the fix-up element
  // threshold, so the parallel run really fans out across the pinned
  // 4-thread pool. Disjoint row bands with identical per-element
  // accumulation order must reproduce the serial block exactly.
  const Matrix x = random_points(600, 40, 31);
  const Matrix y = random_points(600, 40, 32);
  Workspace ws;
  Matrix par, ser;
  pairwise_sq_dists(x, y, ws, par, {.use_gemm = true, .allow_parallel = true});
  pairwise_sq_dists(x, y, ws, ser,
                    {.use_gemm = true, .allow_parallel = false});
  ASSERT_EQ(par.rows(), ser.rows());
  for (std::size_t i = 0; i < par.rows(); ++i) {
    for (std::size_t j = 0; j < par.cols(); ++j) {
      EXPECT_EQ(par(i, j), ser(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(Distance, GramPlusFixupEqualsDistanceBlock) {
  // The fused-consumer contract: pairwise_gram + the documented fix-up
  // expression must reproduce pairwise_sq_dists bit for bit (exact_knn's
  // fused selection relies on this).
  const Matrix x = random_points(37, 8, 55);
  const Matrix y = random_points(23, 8, 56);
  std::vector<double> xn(x.rows()), yn(y.rows());
  row_sq_norms(x, xn);
  row_sq_norms(y, yn);
  Workspace ws;
  Matrix gram, dist;
  pairwise_gram(x, y, gram);
  pairwise_sq_dists_prenormed(x, y, xn, yn, ws, dist,
                              {.allow_parallel = false});
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < y.rows(); ++j) {
      const double fused = std::max(0.0, xn[i] + yn[j] - 2.0 * gram(i, j));
      EXPECT_EQ(fused, dist(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(Distance, SteadyStateBlocksAreAllocationFree) {
  const Matrix x = random_points(64, 12, 91);
  const Matrix y = random_points(48, 12, 92);
  Workspace ws;
  Matrix out;
  const DistanceOptions opts{.use_gemm = true, .allow_parallel = false};
  // Warm-up grows the workspace slots, the output block, the GEMM packing
  // scratch, and the metric registrations.
  pairwise_sq_dists(x, y, ws, out, opts);
  pairwise_sq_dists(x, y, ws, out, opts);
  const long before = g_heap_allocations.load();
  for (int i = 0; i < 20; ++i) {
    pairwise_sq_dists(x, y, ws, out, opts);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0)
      << "engine allocated at steady state";
}

TEST(Distance, ExactKnnSteadyStateIsAllocationFree) {
  const Matrix pts = random_points(200, 10, 93);
  Workspace ws;
  KnnGraph g;
  const DistanceOptions opts{.use_gemm = true, .allow_parallel = false};
  exact_knn(pts, 8, ws, g, opts);
  exact_knn(pts, 8, ws, g, opts);
  const long before = g_heap_allocations.load();
  for (int i = 0; i < 10; ++i) {
    exact_knn(pts, 8, ws, g, opts);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0)
      << "workspace-backed exact_knn allocated at steady state";
}

TEST(Distance, ExactKnnEngineMatchesScalarPath) {
  // Same graph, both arithmetics: identical neighbour sets and distances
  // to rounding. n·d is large enough that blocking/selection run their
  // real paths, with shapes that don't divide the block size.
  const Matrix pts = random_points(500, 9, 44);
  Workspace ws;
  KnnGraph fast, ref;
  exact_knn(pts, 7, ws, fast, {.use_gemm = true});
  exact_knn(pts, 7, ws, ref, {.use_gemm = false});
  ASSERT_EQ(fast.n, ref.n);
  for (std::size_t i = 0; i < fast.n; ++i) {
    for (std::size_t j = 0; j < fast.k; ++j) {
      EXPECT_EQ(fast.neighbor(i, j), ref.neighbor(i, j))
          << "at (" << i << ", " << j << ")";
      EXPECT_NEAR(fast.distance(i, j), ref.distance(i, j),
                  1e-9 * std::max(1.0, ref.distance(i, j)));
    }
  }
}

TEST(Distance, ExactKnnParallelSelectionMatchesSerial) {
  // 2048×16 clears the selection parallel threshold (2048·2048 elements
  // per full sweep); band-partitioned selection must produce the same
  // graph as the serial scan.
  const Matrix pts = random_points(2048, 16, 45);
  Workspace ws;
  KnnGraph par, ser;
  exact_knn(pts, 10, ws, par, {.use_gemm = true, .allow_parallel = true});
  exact_knn(pts, 10, ws, ser, {.use_gemm = true, .allow_parallel = false});
  EXPECT_EQ(par.neighbors, ser.neighbors);
  EXPECT_EQ(par.distances, ser.distances);
}

TEST(Distance, NnDescentGramScoringTracksScalarRecall) {
  // Gram-scored candidate joins change only the rounding of candidate
  // distances, so recall against the exact graph must stay within noise of
  // the scalar path's.
  const Matrix pts = random_points(400, 8, 46);
  Workspace ws;
  KnnGraph exact;
  exact_knn(pts, 10, ws, exact, {});
  Rng rng_a(47);
  KnnGraph gram_graph = arams::test::random_knn_graph(pts, 10, rng_a);
  nn_descent_refine(pts, rng_a, gram_graph, 8, 1.0, {.use_gemm = true});
  Rng rng_b(47);
  KnnGraph scalar_graph = arams::test::random_knn_graph(pts, 10, rng_b);
  nn_descent_refine(pts, rng_b, scalar_graph, 8, 1.0, {.use_gemm = false});
  const double gram_recall = knn_recall(gram_graph, exact);
  const double scalar_recall = knn_recall(scalar_graph, exact);
  EXPECT_NEAR(gram_recall, scalar_recall, 0.02);
  EXPECT_GT(gram_recall, 0.9);
}

TEST(Distance, UmapThroughEngineKeepsTrustworthiness) {
  // Three well-separated Gaussian blobs, the synthetic stand-in for
  // clustered beam-profile latents: the engine-backed kNN + transform
  // pipeline must keep UMAP's neighbourhood preservation at the level the
  // seed implementation's tests demanded (test_umap.cpp uses 0.7).
  Matrix pts(120, 6);
  Rng rng(48);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const double center = static_cast<double>(i % 3) * 25.0;
    for (auto& v : pts.row(i)) v = center + rng.normal();
  }
  UmapConfig config;
  config.n_neighbors = 10;
  config.n_epochs = 150;
  Workspace ws;
  const Matrix y = umap_embed(pts, config, ws);
  EXPECT_GT(trustworthiness(pts, y, 8), 0.7);
}

}  // namespace
}  // namespace arams::embed
