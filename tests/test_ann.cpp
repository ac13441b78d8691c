// embed::NeighborSearcher conformance suite — every factory-registered
// backend must honor the contract in ann/searcher.hpp:
//   * factory round-trip: make_searcher(name(), …) rebuilds the same kind
//   * k is validated (1 <= k < n for graphs, 1 <= k <= n for queries),
//     never silently clamped — including the 1- and 2-point edge cases
//   * rpforest recall >= 0.95 @ k = 15 on the beam-profile and diffraction
//     generators, against the exact searcher as ground truth
//   * bitwise determinism under a fixed seed, independent of
//     DistanceOptions::allow_parallel
//   * allocation-free steady-state query()/query_batch()
//   * insert() grows a built index: exact stays bitwise-equal to a full
//     rebuild, rpforest keeps its recall floor without rebuilding
//   * `auto` dispatches by size and reproduces the chosen backend exactly
//   * a NaN or ±inf point is refused by every entry point that takes one
//
// The allocation check overrides global operator new/delete in this
// translation unit only (each gtest binary is its own process, so the
// override is hermetic) — same pattern as test_sketcher.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "cluster/abod.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "embed/ann/searcher.hpp"
#include "embed/knn.hpp"
#include "image/image.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace {
std::atomic<long> g_heap_allocations{0};
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

/// Beam-profile frames flattened to rows — the realistic geometry the
/// recall pins run on (small frames keep the test fast).
Matrix beam_rows(std::size_t n, std::uint64_t seed) {
  data::BeamProfileConfig config;
  config.height = 16;
  config.width = 16;
  Rng rng(seed);
  const auto samples = data::generate_beam_profiles(config, n, rng);
  std::vector<image::ImageF> frames;
  frames.reserve(n);
  for (const auto& s : samples) frames.push_back(s.frame);
  return image::images_to_matrix(frames);
}

Matrix diffraction_rows(std::size_t n, std::uint64_t seed) {
  data::DiffractionConfig config;
  config.height = 16;
  config.width = 16;
  const data::DiffractionGenerator gen(config);
  Rng rng(seed);
  const auto samples = gen.generate_batch(n, rng);
  std::vector<image::ImageF> frames;
  frames.reserve(n);
  for (const auto& s : samples) frames.push_back(s.frame);
  return image::images_to_matrix(frames);
}

// ---------------------------------------------------------------------------
// Factory

TEST(AnnFactory, RegistryListsAllBackends) {
  const std::vector<std::string> names = registered_searchers();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "exact");
  EXPECT_EQ(names[1], "rpforest");
  EXPECT_EQ(names[2], "auto");
  for (const auto& name : names) {
    EXPECT_TRUE(searcher_registered(name));
    EXPECT_FALSE(searcher_description(name).empty());
  }
  EXPECT_FALSE(searcher_registered("annoy"));
  EXPECT_THROW(searcher_description("annoy"), CheckError);
}

TEST(AnnFactory, NameRoundTrips) {
  for (const auto& name : registered_searchers()) {
    const auto searcher = make_searcher(name, /*seed=*/1);
    EXPECT_EQ(searcher->name(), name);
  }
}

TEST(AnnFactory, RejectsUnknownBackend) {
  EXPECT_THROW(make_searcher("annoy", 1), CheckError);
}

TEST(AnnFactory, RejectsInvalidConfig) {
  AnnConfig config;
  config.backend = "rpforest";
  config.leaf_size = 1;
  EXPECT_FALSE(config.validate().empty());
  EXPECT_THROW(make_searcher(config), CheckError);

  AnnConfig bad_trees;
  bad_trees.num_trees = 0;
  EXPECT_FALSE(bad_trees.validate().empty());

  AnnConfig ok;
  EXPECT_TRUE(ok.validate().empty());
}

// ---------------------------------------------------------------------------
// k validation (satellite bugfix: k >= n used to crash downstream instead of
// failing at the API boundary)

TEST(AnnValidation, GraphRejectsKOutOfRange) {
  for (const auto& name : registered_searchers()) {
    const auto searcher = make_searcher(name, 2);
    Workspace ws;
    searcher->build(random_points(6, 3, 3), ws);
    KnnGraph g;
    EXPECT_THROW(searcher->query_graph(0, ws, g), CheckError);
    EXPECT_THROW(searcher->query_graph(6, ws, g), CheckError);
    EXPECT_THROW(searcher->query_graph(7, ws, g), CheckError);
    searcher->query_graph(5, ws, g);  // k == n-1 is the last valid value
    EXPECT_EQ(g.n, 6u);
    EXPECT_EQ(g.k, 5u);
  }
}

TEST(AnnValidation, ErrorMessagesCarryTheOffendingValues) {
  const auto searcher = make_searcher("exact", 2);
  Workspace ws;
  searcher->build(random_points(4, 2, 4), ws);
  KnnGraph g;
  try {
    searcher->query_graph(4, ws, g);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("k=4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=4"), std::string::npos) << msg;
  }
}

TEST(AnnValidation, SinglePointIndex) {
  // A 1-point index can answer external queries with k = 1 but has no
  // valid self-excluded graph at all.
  for (const auto& name : registered_searchers()) {
    const auto searcher = make_searcher(name, 5);
    Workspace ws;
    Matrix one(1, 3);
    one(0, 0) = 1.0;
    one(0, 1) = 2.0;
    one(0, 2) = 2.0;
    searcher->build(one, ws);
    std::vector<std::size_t> nbr;
    std::vector<double> dist;
    const std::vector<double> q = {1.0, 2.0, 5.0};
    searcher->query(q, 1, ws, nbr, dist);
    ASSERT_EQ(nbr.size(), 1u);
    EXPECT_EQ(nbr[0], 0u);
    EXPECT_DOUBLE_EQ(dist[0], 3.0);
    EXPECT_THROW(searcher->query(q, 2, ws, nbr, dist), CheckError);
    KnnGraph g;
    EXPECT_THROW(searcher->query_graph(1, ws, g), CheckError);
  }
}

TEST(AnnValidation, TwoPointIndex) {
  for (const auto& name : registered_searchers()) {
    const auto searcher = make_searcher(name, 6);
    Workspace ws;
    Matrix two(2, 2);
    two(0, 0) = 0.0;
    two(0, 1) = 0.0;
    two(1, 0) = 3.0;
    two(1, 1) = 4.0;
    searcher->build(two, ws);
    KnnGraph g;
    searcher->query_graph(1, ws, g);
    EXPECT_EQ(g.neighbor(0, 0), 1u);
    EXPECT_EQ(g.neighbor(1, 0), 0u);
    EXPECT_DOUBLE_EQ(g.distance(0, 0), 5.0);
    EXPECT_THROW(searcher->query_graph(2, ws, g), CheckError);
  }
}

TEST(AnnValidation, QueryBeforeBuildThrows) {
  for (const auto& name : registered_searchers()) {
    const auto searcher = make_searcher(name, 7);
    Workspace ws;
    KnnGraph g;
    std::vector<double> q = {0.0, 0.0};
    std::vector<std::size_t> nbr;
    std::vector<double> dist;
    EXPECT_THROW(searcher->query_graph(1, ws, g), CheckError);
    EXPECT_THROW(searcher->query(q, 1, ws, nbr, dist), CheckError);
    EXPECT_THROW(
        searcher->insert(MatrixView(q.data(), 1, 2), ws), CheckError);
  }
}

// ---------------------------------------------------------------------------
// Exact backend == the historical brute-force path

TEST(ExactSearcher, GraphMatchesExactKnn) {
  const Matrix pts = random_points(80, 6, 8);
  const auto searcher = make_searcher("exact", 9);
  Workspace ws;
  searcher->build(pts, ws);
  KnnGraph g;
  searcher->query_graph(10, ws, g);
  const KnnGraph reference = exact_knn(pts, 10);
  EXPECT_EQ(g.neighbors, reference.neighbors);
  EXPECT_EQ(g.distances, reference.distances);
}

TEST(ExactSearcher, ExternalQueryFindsTrueNeighbors) {
  const Matrix pts = random_points(60, 4, 10);
  const Matrix queries = random_points(7, 4, 11);
  const auto searcher = make_searcher("exact", 12);
  Workspace ws;
  searcher->build(pts, ws);
  KnnGraph g;
  searcher->query_batch(queries, 3, ws, g);
  ASSERT_EQ(g.n, 7u);
  ASSERT_EQ(g.k, 3u);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    // Brute-force reference for each query row.
    std::vector<std::pair<double, std::size_t>> all;
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      double d2 = 0.0;
      for (std::size_t c = 0; c < pts.cols(); ++c) {
        const double diff = queries(q, c) - pts(i, c);
        d2 += diff * diff;
      }
      all.emplace_back(d2, i);
    }
    std::sort(all.begin(), all.end());
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(g.neighbor(q, j), all[j].second);
      // The engine expands ||q||² − 2q·p + ||p||² via GEMM; the scalar loop
      // here rounds differently, so compare to a few ulps, not bitwise.
      EXPECT_NEAR(g.distance(q, j), std::sqrt(all[j].first), 1e-12);
    }
    for (std::size_t j = 1; j < 3; ++j) {
      EXPECT_GE(g.distance(q, j), g.distance(q, j - 1));
    }
  }
}

TEST(ExactSearcher, SqDistsToCoversIndex) {
  const Matrix pts = random_points(30, 5, 13);
  const auto searcher = make_searcher("exact", 14);
  Workspace ws;
  searcher->build(pts, ws);
  std::vector<double> d2(30);
  const auto q = pts.row(4);
  searcher->sq_dists_to(q, ws, d2);
  EXPECT_DOUBLE_EQ(d2[4], 0.0);
  for (std::size_t i = 0; i < 30; ++i) {
    double want = 0.0;
    for (std::size_t c = 0; c < 5; ++c) {
      const double diff = q[c] - pts(i, c);
      want += diff * diff;
    }
    EXPECT_NEAR(d2[i], want, 1e-9 * (1.0 + want));
  }
  std::vector<double> wrong(29);
  EXPECT_THROW(searcher->sq_dists_to(q, ws, wrong), CheckError);
}

// ---------------------------------------------------------------------------
// rpforest recall pins

double graph_recall_vs_exact(const Matrix& pts, std::size_t k,
                             std::uint64_t seed) {
  Workspace ws;
  const auto exact = make_searcher("exact", seed);
  exact->build(pts, ws);
  KnnGraph truth;
  exact->query_graph(k, ws, truth);

  const auto forest = make_searcher("rpforest", seed);
  forest->build(pts, ws);
  KnnGraph approx;
  forest->query_graph(k, ws, approx);
  return knn_recall(approx, truth);
}

TEST(RpForest, RecallOnBeamProfiles) {
  const Matrix pts = beam_rows(600, 15);
  EXPECT_GE(graph_recall_vs_exact(pts, 15, 2024), 0.95);
}

TEST(RpForest, RecallOnDiffractionFrames) {
  const Matrix pts = diffraction_rows(600, 16);
  EXPECT_GE(graph_recall_vs_exact(pts, 15, 2024), 0.95);
}

TEST(RpForest, RecallOnGaussianClouds) {
  const Matrix pts = random_points(800, 12, 17);
  EXPECT_GE(graph_recall_vs_exact(pts, 15, 99), 0.95);
}

TEST(RpForest, SinglePointQueriesFindTrueNeighbors) {
  const Matrix pts = beam_rows(400, 18);
  Workspace ws;
  const auto exact = make_searcher("exact", 1);
  const auto forest = make_searcher("rpforest", 1);
  exact->build(pts, ws);
  forest->build(pts, ws);
  const Matrix queries = beam_rows(40, 19);
  KnnGraph truth;
  exact->query_batch(queries, 10, ws, truth);
  KnnGraph approx;
  forest->query_batch(queries, 10, ws, approx);
  ASSERT_EQ(approx.n, truth.n);
  ASSERT_EQ(approx.k, truth.k);
  // Set-overlap recall over the batch.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < truth.n; ++i) {
    for (std::size_t j = 0; j < truth.k; ++j) {
      for (std::size_t l = 0; l < truth.k; ++l) {
        if (approx.neighbor(i, l) == truth.neighbor(i, j)) {
          ++hits;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(truth.n * truth.k);
  EXPECT_GE(recall, 0.95);
}

TEST(RpForest, ScoresFarFewerCandidatesThanExact) {
  const Matrix pts = random_points(800, 12, 20);
  Workspace ws;
  const auto forest = make_searcher("rpforest", 21);
  forest->build(pts, ws);
  KnnGraph g;
  forest->query_graph(15, ws, g);
  // The whole point of the forest: candidate work far below the n² wall.
  EXPECT_LT(forest->stats().candidates_scored,
            static_cast<long>(pts.rows() * pts.rows() / 2));
  EXPECT_GT(forest->stats().candidates_scored, 0);
}

// ---------------------------------------------------------------------------
// Determinism

TEST(AnnDeterminism, GraphBitwiseStableAcrossParallelModes) {
  const Matrix pts = random_points(500, 8, 22);
  for (const auto& name : registered_searchers()) {
    KnnGraph serial, parallel;
    {
      Workspace ws;
      const auto searcher = make_searcher(name, 23);
      searcher->build(pts, ws, DistanceOptions{.allow_parallel = false});
      searcher->query_graph(12, ws, serial,
                            DistanceOptions{.allow_parallel = false});
    }
    {
      Workspace ws;
      const auto searcher = make_searcher(name, 23);
      searcher->build(pts, ws, DistanceOptions{.allow_parallel = true});
      searcher->query_graph(12, ws, parallel,
                            DistanceOptions{.allow_parallel = true});
    }
    EXPECT_EQ(serial.neighbors, parallel.neighbors) << name;
    EXPECT_EQ(serial.distances, parallel.distances) << name;
  }
}

TEST(AnnDeterminism, RepeatedBuildsReproduceBitwise) {
  const Matrix pts = random_points(400, 6, 24);
  const Matrix queries = random_points(30, 6, 25);
  for (const auto& name : registered_searchers()) {
    KnnGraph a, b;
    for (KnnGraph* out : {&a, &b}) {
      Workspace ws;
      const auto searcher = make_searcher(name, 26);
      searcher->build(pts, ws);
      searcher->query_batch(queries, 9, ws, *out);
    }
    EXPECT_EQ(a.neighbors, b.neighbors) << name;
    EXPECT_EQ(a.distances, b.distances) << name;
  }
}

// ---------------------------------------------------------------------------
// Allocation-free steady state

TEST(AnnAllocation, SteadyStateQueriesAreAllocationFree) {
  const Matrix pts = random_points(600, 8, 27);
  const Matrix queries = random_points(64, 8, 28);
  const std::vector<double> single(queries.row(0).begin(),
                                   queries.row(0).end());
  for (const auto& name : registered_searchers()) {
    Workspace ws;
    const auto searcher = make_searcher(name, 29);
    searcher->build(pts, ws);
    KnnGraph out;
    std::vector<std::size_t> nbr;
    std::vector<double> dist;
    // Warm-up: sizes the grow-only scratch, the workspace slots and the
    // output containers.
    searcher->query_batch(queries, 15, ws, out);
    searcher->query(single, 15, ws, nbr, dist);
    const long before = g_heap_allocations.load(std::memory_order_relaxed);
    for (int pass = 0; pass < 3; ++pass) {
      searcher->query_batch(queries, 15, ws, out);
      searcher->query(single, 15, ws, nbr, dist);
    }
    const long after = g_heap_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0) << name;
  }
}

// ---------------------------------------------------------------------------
// Incremental insert

TEST(AnnInsert, ExactMatchesFullRebuildBitwise) {
  const Matrix all = random_points(90, 5, 30);
  Workspace ws;
  const auto grown = make_searcher("exact", 31);
  grown->build(all.slice_rows(0, 60), ws);
  grown->insert(MatrixView::rows_of(all, 60, 90), ws);
  const auto rebuilt = make_searcher("exact", 31);
  rebuilt->build(all, ws);
  ASSERT_EQ(grown->size(), 90u);
  KnnGraph a, b;
  grown->query_graph(8, ws, a);
  rebuilt->query_graph(8, ws, b);
  EXPECT_EQ(a.neighbors, b.neighbors);
  EXPECT_EQ(a.distances, b.distances);
}

TEST(AnnInsert, RpForestKeepsRecallWithoutRebuilding) {
  const Matrix all = beam_rows(500, 32);
  Workspace ws;
  const auto forest = make_searcher("rpforest", 33);
  forest->build(all.slice_rows(0, 350), ws);
  forest->insert(MatrixView::rows_of(all, 350, 500), ws);
  ASSERT_EQ(forest->size(), 500u);
  EXPECT_EQ(forest->stats().builds, 1);
  EXPECT_EQ(forest->stats().inserted_rows, 150);

  const auto exact = make_searcher("exact", 33);
  exact->build(all, ws);
  KnnGraph truth, approx;
  exact->query_graph(15, ws, truth);
  forest->query_graph(15, ws, approx);
  EXPECT_GE(knn_recall(approx, truth), 0.95);
}

TEST(AnnInsert, InsertedPointsAreImmediatelyQueryable) {
  const Matrix base = random_points(100, 4, 34);
  const Matrix fresh = random_points(10, 4, 35);
  for (const auto& name : registered_searchers()) {
    Workspace ws;
    const auto searcher = make_searcher(name, 36);
    searcher->build(base, ws);
    searcher->insert(fresh, ws);
    std::vector<std::size_t> nbr;
    std::vector<double> dist;
    for (std::size_t i = 0; i < fresh.rows(); ++i) {
      searcher->query(fresh.row(i), 1, ws, nbr, dist);
      EXPECT_EQ(nbr[0], 100 + i) << name;
      EXPECT_DOUBLE_EQ(dist[0], 0.0) << name;
    }
  }
}

TEST(AnnInsert, DimensionMismatchThrows) {
  const auto searcher = make_searcher("exact", 37);
  Workspace ws;
  searcher->build(random_points(10, 4, 38), ws);
  const Matrix wrong = random_points(2, 3, 39);
  EXPECT_THROW(searcher->insert(wrong, ws), CheckError);
}

TEST(AnnValidation, NonFinitePointsThrow) {
  // A NaN or ±inf coordinate is refused by every entry point that takes
  // points, for every backend and both engine modes. Without the check the
  // GEMM fix-up max(0, ‖x‖² + ‖y‖² − 2g) maps NaN to 0, so a NaN row would
  // sit at distance 0 from every point.
  const Matrix good = random_points(64, 3, 91);
  AnnConfig auto_forest;
  auto_forest.backend = "auto";
  auto_forest.exact_threshold = 16;  // 64 points dispatch to rpforest
  const std::vector<AnnConfig> configs = {
      [] { AnnConfig c; c.backend = "exact"; return c; }(),
      [] { AnnConfig c; c.backend = "rpforest"; return c; }(),
      [] { AnnConfig c; c.backend = "auto"; return c; }(), auto_forest};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix broken = good;
    broken(5, 2) = bad;
    for (const AnnConfig& config : configs) {
      for (const bool use_gemm : {true, false}) {
        const DistanceOptions opts{.use_gemm = use_gemm};
        const std::string label = config.backend + " threshold " +
                                  std::to_string(config.exact_threshold) +
                                  " use_gemm " + std::to_string(use_gemm);
        Workspace ws;
        const auto searcher = make_searcher(config);
        EXPECT_THROW(searcher->build(broken, ws, opts), CheckError) << label;
        searcher->build(good, ws, opts);
        EXPECT_THROW(searcher->insert(broken, ws, opts), CheckError) << label;
        EXPECT_EQ(searcher->size(), good.rows()) << label;
        KnnGraph graph;
        EXPECT_THROW(searcher->query_batch(broken, 4, ws, graph, opts),
                     CheckError)
            << label;
        std::vector<std::size_t> nbr;
        std::vector<double> dist;
        EXPECT_THROW(searcher->query(broken.row(5), 4, ws, nbr, dist, opts),
                     CheckError)
            << label;
        std::vector<double> d2(searcher->size());
        EXPECT_THROW(searcher->sq_dists_to(broken.row(5), ws, d2, opts),
                     CheckError)
            << label;
        // A refused call leaves a usable index behind.
        searcher->query_graph(4, ws, graph, opts);
        EXPECT_EQ(graph.n, good.rows()) << label;
      }
    }
  }
}

TEST(AnnValidation, NonFiniteMessageNamesRowAndColumn) {
  Matrix pts = random_points(10, 4, 92);
  pts(7, 3) = std::numeric_limits<double>::quiet_NaN();
  const auto searcher = make_searcher("exact", 93);
  Workspace ws;
  try {
    searcher->build(pts, ws);
    FAIL() << "build accepted a NaN row";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 7, column 3"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Auto dispatch

TEST(AutoSearcher, DispatchesExactBelowThreshold) {
  const Matrix pts = random_points(200, 6, 40);
  AnnConfig config;
  config.backend = "auto";
  config.exact_threshold = 200;  // n <= threshold → exact
  config.seed = 41;
  Workspace ws;
  const auto dispatcher = make_searcher(config);
  dispatcher->build(pts, ws);
  KnnGraph got;
  dispatcher->query_graph(7, ws, got);

  AnnConfig exact_config = config;
  exact_config.backend = "exact";
  const auto exact = make_searcher(exact_config);
  exact->build(pts, ws);
  KnnGraph want;
  exact->query_graph(7, ws, want);
  EXPECT_EQ(got.neighbors, want.neighbors);
  EXPECT_EQ(got.distances, want.distances);
}

TEST(AutoSearcher, DispatchesForestAboveThreshold) {
  const Matrix pts = random_points(200, 6, 42);
  AnnConfig config;
  config.backend = "auto";
  config.exact_threshold = 199;  // n > threshold → rpforest
  config.seed = 43;
  Workspace ws;
  const auto dispatcher = make_searcher(config);
  dispatcher->build(pts, ws);
  KnnGraph got;
  dispatcher->query_graph(7, ws, got);

  AnnConfig forest_config = config;
  forest_config.backend = "rpforest";
  const auto forest = make_searcher(forest_config);
  forest->build(pts, ws);
  KnnGraph want;
  forest->query_graph(7, ws, want);
  EXPECT_EQ(got.neighbors, want.neighbors);
  EXPECT_EQ(got.distances, want.distances);
}

// ---------------------------------------------------------------------------
// Stats and reporting

TEST(AnnStatsCounters, TrackBuildsInsertsAndQueries) {
  const Matrix pts = random_points(50, 4, 44);
  Workspace ws;
  const auto searcher = make_searcher("exact", 45);
  searcher->build(pts, ws);
  searcher->insert(random_points(5, 4, 46), ws);
  KnnGraph g;
  searcher->query_graph(6, ws, g);
  const AnnStats& s = searcher->stats();
  EXPECT_EQ(s.builds, 1);
  EXPECT_EQ(s.inserted_rows, 5);
  EXPECT_EQ(s.query_rows, 55);
  EXPECT_GT(s.candidates_scored, 0);

  obs::StageReport report;
  searcher->report(report);
  EXPECT_EQ(report.counter("ann_builds"), 1);
  EXPECT_EQ(report.counter("ann_inserted_rows"), 5);
  EXPECT_EQ(report.counter("ann_query_rows"), 55);
}

// ---------------------------------------------------------------------------
// Consumers honour the configured backend

TEST(AnnConsumers, AbodAcceptsConfiguredBackend) {
  const Matrix pts = random_points(120, 3, 47);
  cluster::AbodConfig exact_abod;
  exact_abod.k = 8;
  exact_abod.knn.backend = "exact";
  cluster::AbodConfig forest_abod;
  forest_abod.k = 8;
  forest_abod.knn.backend = "rpforest";
  const std::vector<double> a = cluster::fast_abod(pts, exact_abod);
  const std::vector<double> b = cluster::fast_abod(pts, forest_abod);
  ASSERT_EQ(a.size(), b.size());
  // High-recall neighbourhoods give near-identical ABOF scores; what
  // matters here is that the backend plumbs through and stays sane.
  for (double score : b) {
    EXPECT_TRUE(std::isfinite(score));
    EXPECT_GE(score, 0.0);
  }
}

}  // namespace
}  // namespace arams::embed
