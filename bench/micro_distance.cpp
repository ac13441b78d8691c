// Downstream distance-engine benchmarks (google-benchmark): the pairwise
// block primitive, exact kNN, OPTICS core distances, and UMAP epochs —
// each engine path next to the per-pair scalar implementation it replaced,
// so BENCH_downstream.json records the before/after directly. Shapes
// follow the Section VI-B snapshot sizes (a few thousand latent points,
// d = 32 after PCA).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cluster/optics.hpp"
#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "embed/umap.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace {

using namespace arams;
using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

void BM_PairwiseBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_matrix(n, 32, 1);
  const Matrix y = random_matrix(n, 32, 2);
  linalg::Workspace ws;
  Matrix out;
  for (auto _ : state) {
    embed::pairwise_sq_dists(x, y, ws, out, {});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_PairwiseBlock)->Arg(256)->Arg(1024)->Arg(4096);

void BM_PairwiseBlockNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_matrix(n, 32, 1);
  const Matrix y = random_matrix(n, 32, 2);
  linalg::Workspace ws;
  Matrix out;
  for (auto _ : state) {
    embed::pairwise_sq_dists(x, y, ws, out,
                             {.use_gemm = false, .allow_parallel = false});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_PairwiseBlockNaive)->Arg(256)->Arg(1024)->Arg(4096);

// The acceptance shape: n = 4096 latent points, d = 32, k = 15.
constexpr std::size_t kKnnN = 4096;
constexpr std::size_t kKnnD = 32;
constexpr std::size_t kKnnK = 15;

void BM_ExactKnn(benchmark::State& state) {
  const Matrix pts = random_matrix(kKnnN, kKnnD, 7);
  linalg::Workspace ws;
  embed::KnnGraph g;
  for (auto _ : state) {
    embed::exact_knn(pts, kKnnK, ws, g, {});
    benchmark::DoNotOptimize(g.neighbors.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKnnN * kKnnN));
}
BENCHMARK(BM_ExactKnn)->Unit(benchmark::kMillisecond);

/// Faithful replica of the pre-engine exact_knn: per-pair scalar distances
/// into an all-pairs row, then a build-and-partial_sort selection — the
/// "before" column of the downstream table.
void BM_ExactKnnNaive(benchmark::State& state) {
  const Matrix pts = random_matrix(kKnnN, kKnnD, 7);
  std::vector<std::size_t> neighbors(kKnnN * kKnnK);
  std::vector<double> distances(kKnnN * kKnnK);
  std::vector<std::pair<double, std::size_t>> row;
  row.reserve(kKnnN - 1);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kKnnN; ++i) {
      row.clear();
      for (std::size_t j = 0; j < kKnnN; ++j) {
        if (j == i) continue;
        row.emplace_back(embed::sq_dist(pts.row(i), pts.row(j)), j);
      }
      std::partial_sort(row.begin(), row.begin() + kKnnK, row.end());
      for (std::size_t j = 0; j < kKnnK; ++j) {
        neighbors[i * kKnnK + j] = row[j].second;
        distances[i * kKnnK + j] = std::sqrt(row[j].first);
      }
    }
    benchmark::DoNotOptimize(neighbors.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKnnN * kKnnN));
}
BENCHMARK(BM_ExactKnnNaive)->Unit(benchmark::kMillisecond);

void BM_OpticsCoreDist(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = random_matrix(n, 2, 9);
  linalg::Workspace ws;
  for (auto _ : state) {
    const cluster::OpticsResult r =
        cluster::optics(pts, cluster::OpticsConfig{5}, ws, {});
    benchmark::DoNotOptimize(r.order.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
// 4608 is the diffraction_snapshot reservoir size.
BENCHMARK(BM_OpticsCoreDist)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond);

void BM_OpticsCoreDistNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = random_matrix(n, 2, 9);
  linalg::Workspace ws;
  for (auto _ : state) {
    const cluster::OpticsResult r = cluster::optics(
        pts, cluster::OpticsConfig{5}, ws,
        {.use_gemm = false, .allow_parallel = false});
    benchmark::DoNotOptimize(r.order.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_OpticsCoreDistNaive)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond);

embed::UmapConfig umap_bench_config(embed::UmapConfig::Optimizer opt) {
  embed::UmapConfig config;
  config.n_neighbors = 12;
  config.n_epochs = 50;
  config.optimizer = opt;
  return config;
}

void BM_UmapEpochSerial(benchmark::State& state) {
  const Matrix pts = random_matrix(600, 16, 13);
  const embed::UmapConfig config =
      umap_bench_config(embed::UmapConfig::Optimizer::kSerial);
  linalg::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::umap_embed(pts, config, ws).data());
  }
}
BENCHMARK(BM_UmapEpochSerial)->Unit(benchmark::kMillisecond);

void BM_UmapEpochBatch(benchmark::State& state) {
  const Matrix pts = random_matrix(600, 16, 13);
  const embed::UmapConfig config =
      umap_bench_config(embed::UmapConfig::Optimizer::kBatchParallel);
  linalg::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::umap_embed(pts, config, ws).data());
  }
}
BENCHMARK(BM_UmapEpochBatch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
