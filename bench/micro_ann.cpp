// ANN subsystem benchmarks (google-benchmark): the rpforest backend next
// to the exact GEMM engine it replaces above the auto-dispatch threshold,
// so BENCH_ann.json records the speedup and the recall it costs directly.
// Shapes follow the Section VI-B latent geometry (d = 32 after PCA) with a
// clustered Gaussian mixture standing in for the per-class structure the
// beam/diffraction generators produce; n sweeps across the O(n²) wall the
// forest exists to remove (the headline row is n = 65536, k = 15).
//
// Counters:
//   recall  fraction of true k-nearest neighbours recovered. Exhaustive at
//           the RecallPin shape; estimated over a 256-query sample on the
//           graph sweep (an exhaustive check at n = 65536 would cost more
//           than the benchmark itself).
//
// tools/check_ann_recall.sh runs the BM_AnnRecallPin filter as a ctest and
// fails the build when recall drops below 0.95.
//
// The picture's own graph shapes sit beside the sweep: BM_AnnGraphForest at
// the monitor's 4608-point reservoir with the UMAP graph over the d = 10
// latent (k = 15) and ABOD's over the 2-D embedding (k = 10), and
// BM_FastAbod, the whole outlier pass at that size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "cluster/abod.hpp"
#include "embed/ann/searcher.hpp"
#include "embed/knn.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace {

using namespace arams;
using linalg::Matrix;

constexpr std::size_t kDim = 32;
constexpr std::size_t kNeighbors = 15;

/// Clustered Gaussian mixture in latent space: centers spread at scale 5,
/// unit within-cluster noise — the shape a PCA projection of a multi-class
/// run actually hands the kNN stage (iid Gaussian would be the degenerate
/// no-structure case).
Matrix clustered_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  const std::size_t clusters = 32;
  Rng rng(seed);
  Matrix centers(clusters, d);
  for (std::size_t c = 0; c < clusters; ++c) {
    rng.fill_normal(centers.row(c));
    for (double& v : centers.row(c)) v *= 5.0;
  }
  Matrix pts(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    rng.fill_normal(pts.row(i));
    const auto center = centers.row(c);
    auto row = pts.row(i);
    for (std::size_t j = 0; j < d; ++j) row[j] += center[j];
  }
  return pts;
}

/// Neighbour-set recall of `approx` rows against ground-truth rows for the
/// query subset `rows` (approx indexed by position in `rows`).
double sampled_recall(const embed::KnnGraph& truth,
                      const embed::KnnGraph& approx,
                      const std::vector<std::size_t>& rows) {
  std::size_t hits = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    for (std::size_t j = 0; j < truth.k; ++j) {
      const std::size_t want = truth.neighbor(s, j);
      for (std::size_t l = 0; l < approx.k; ++l) {
        if (approx.neighbor(rows[s], l) == want) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(rows.size() * truth.k);
}

/// Ground truth for a sample of indexed points: exact query_batch with
/// k + 1, self column dropped.
embed::KnnGraph sampled_truth(const Matrix& pts,
                              const std::vector<std::size_t>& rows,
                              std::size_t k, linalg::Workspace& ws) {
  Matrix queries(rows.size(), pts.cols());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    queries.set_row(s, pts.row(rows[s]));
  }
  const auto exact = embed::make_searcher("exact", 0);
  exact->build(pts, ws);
  embed::KnnGraph with_self;
  exact->query_batch(queries, k + 1, ws, with_self);
  embed::KnnGraph truth;
  truth.n = rows.size();
  truth.k = k;
  truth.neighbors.resize(rows.size() * k);
  truth.distances.resize(rows.size() * k);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    std::size_t out = 0;
    for (std::size_t j = 0; j <= k && out < k; ++j) {
      if (with_self.neighbor(s, j) == rows[s]) continue;
      truth.neighbors[s * k + out] = with_self.neighbor(s, j);
      truth.distances[s * k + out] = with_self.distance(s, j);
      ++out;
    }
  }
  return truth;
}

void BM_AnnGraphExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_points(n, kDim, 1);
  linalg::Workspace ws;
  const auto searcher = embed::make_searcher("exact", 7);
  searcher->build(pts, ws);
  embed::KnnGraph g;
  for (auto _ : state) {
    searcher->query_graph(kNeighbors, ws, g);
    benchmark::DoNotOptimize(g.neighbors.data());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["recall"] = 1.0;
}
BENCHMARK(BM_AnnGraphExact)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

/// Args: n, d, k.
void BM_AnnGraphForest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix pts = clustered_points(n, d, 1);
  linalg::Workspace ws;
  const auto searcher = embed::make_searcher("rpforest", 7);
  searcher->build(pts, ws);
  embed::KnnGraph g;
  for (auto _ : state) {
    searcher->query_graph(k, ws, g);
    benchmark::DoNotOptimize(g.neighbors.data());
  }
  // Recall estimate on a deterministic 256-row sample (not timed).
  std::vector<std::size_t> sample;
  const std::size_t count = std::min<std::size_t>(n, 256);
  for (std::size_t s = 0; s < count; ++s) {
    sample.push_back((s * n) / count);
  }
  const embed::KnnGraph truth = sampled_truth(pts, sample, k, ws);
  state.counters["n"] = static_cast<double>(n);
  state.counters["recall"] = sampled_recall(truth, g, sample);
}
BENCHMARK(BM_AnnGraphForest)
    ->Args({4096, kDim, kNeighbors})
    ->Args({16384, kDim, kNeighbors})
    ->Args({65536, kDim, kNeighbors})
    ->Args({4608, 10, 15})
    ->Args({4608, 2, 10})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// FastABOD over a 4608-point 2-D embedding: its rpforest graph (k = 10)
/// and the per-point angle statistics.
void BM_FastAbod(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_points(n, 2, 9);
  linalg::Workspace ws;
  const cluster::AbodConfig config;
  for (auto _ : state) {
    const std::vector<double> scores = cluster::fast_abod(pts, config, ws);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_FastAbod)->Arg(4608)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The ctest recall pin: exhaustive ground truth at a size small enough to
/// run on every build (tools/check_ann_recall.sh fails below 0.95).
void BM_AnnRecallPin(benchmark::State& state) {
  const std::size_t n = 4096;
  const Matrix pts = clustered_points(n, kDim, 2);
  linalg::Workspace ws;
  const auto searcher = embed::make_searcher("rpforest", 2024);
  searcher->build(pts, ws);
  embed::KnnGraph g;
  for (auto _ : state) {
    searcher->query_graph(kNeighbors, ws, g);
    benchmark::DoNotOptimize(g.neighbors.data());
  }
  embed::KnnGraph truth;
  const auto exact = embed::make_searcher("exact", 2024);
  exact->build(pts, ws);
  exact->query_graph(kNeighbors, ws, truth);
  state.counters["n"] = static_cast<double>(n);
  state.counters["recall"] = embed::knn_recall(g, truth);
}
BENCHMARK(BM_AnnRecallPin)->Unit(benchmark::kMillisecond);

void BM_AnnQueryBatch(benchmark::State& state, const char* backend) {
  const std::size_t n = 16384;
  const Matrix pts = clustered_points(n, kDim, 3);
  const Matrix queries = clustered_points(256, kDim, 4);
  linalg::Workspace ws;
  const auto searcher = embed::make_searcher(backend, 5);
  searcher->build(pts, ws);
  embed::KnnGraph g;
  searcher->query_batch(queries, kNeighbors, ws, g);  // warm the scratch
  for (auto _ : state) {
    searcher->query_batch(queries, kNeighbors, ws, g);
    benchmark::DoNotOptimize(g.neighbors.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.rows()));
}
BENCHMARK_CAPTURE(BM_AnnQueryBatch, exact, "exact")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AnnQueryBatch, rpforest, "rpforest")
    ->Unit(benchmark::kMillisecond);

/// Streaming growth: 256-row inserts into a warm forest (the monitor's
/// incremental-snapshot path). The index is rebuilt outside the timed
/// region once it doubles, so the measured cost stays at the steady state.
void BM_AnnInsertForest(benchmark::State& state) {
  const std::size_t n = 16384;
  const Matrix pts = clustered_points(n, kDim, 5);
  const Matrix fresh = clustered_points(256, kDim, 6);
  linalg::Workspace ws;
  const auto searcher = embed::make_searcher("rpforest", 8);
  searcher->build(pts, ws);
  for (auto _ : state) {
    if (searcher->size() > 2 * n) {
      state.PauseTiming();
      searcher->build(pts, ws);
      state.ResumeTiming();
    }
    searcher->insert(fresh, ws);
    benchmark::DoNotOptimize(searcher->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fresh.rows()));
}
BENCHMARK(BM_AnnInsertForest)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
