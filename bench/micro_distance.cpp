// Downstream distance-engine benchmarks (google-benchmark): the pairwise
// block primitive, exact kNN, OPTICS, the snapshot's reservoir projection,
// and UMAP embeds and layouts — each engine path next to the per-pair scalar
// implementation it replaced, so BENCH_downstream.json records the
// before/after directly. Shapes follow the Section VI-B snapshot sizes (a
// few thousand latent points, d = 32 after PCA) and the monitor's own
// snapshot (4608 frames of 64×64, 10 PCA components, a 2-D embedding).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "cluster/optics.hpp"
#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "embed/pca.hpp"
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

/// A 2-D picture like the monitor's UMAP embedding of a run: eight blobs
/// of different sizes and spreads plus 4% scattered points.
Matrix clustered_embedding(std::size_t n, std::uint64_t seed) {
  Matrix pts(n, 2);
  Rng rng(seed);
  const std::size_t noise = n / 25;
  for (std::size_t i = 0; i < n - noise; ++i) {
    const std::size_t c = (i * i) % 8;  // uneven blob sizes
    const double spread = 0.2 + 0.15 * static_cast<double>(c);
    pts(i, 0) = 4.0 * static_cast<double>(c % 4) + spread * rng.normal();
    pts(i, 1) = 5.0 * static_cast<double>(c / 4) + spread * rng.normal();
  }
  for (std::size_t i = n - noise; i < n; ++i) {
    pts(i, 0) = rng.uniform(-4.0, 16.0);
    pts(i, 1) = rng.uniform(-4.0, 9.0);
  }
  return pts;
}

/// OPTICS at the monitor's shape: clustered 2-D input and min_pts 30, what
/// scale_min_pts gives from n = 300 on. The core pass runs on the pool.
void BM_OpticsCoreDistClustered(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_embedding(n, 21);
  linalg::Workspace ws;
  for (auto _ : state) {
    const cluster::OpticsResult r =
        cluster::optics(pts, cluster::OpticsConfig{30}, ws, {});
    benchmark::DoNotOptimize(r.order.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_OpticsCoreDistClustered)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same with the core pass kept on the calling thread
/// (allow_parallel = false): the pool's share of the row above.
void BM_OpticsCoreDistClusteredSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_embedding(n, 21);
  linalg::Workspace ws;
  for (auto _ : state) {
    const cluster::OpticsResult r = cluster::optics(
        pts, cluster::OpticsConfig{30}, ws, {.allow_parallel = false});
    benchmark::DoNotOptimize(r.order.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_OpticsCoreDistClusteredSerial)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Phase one of the row above alone: every core distance at k = 29
/// (min_pts 30) on the pool, through cluster::core_distances. The
/// traversal is the difference between the two rows.
void BM_CoreDistancesClustered(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_embedding(n, 21);
  for (auto _ : state) {
    const std::vector<double> core = cluster::core_distances(pts, 29);
    benchmark::DoNotOptimize(core.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_CoreDistancesClustered)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// A 10-D latent of four Gaussian classes with per-class spreads, the
/// shape of the monitor's PCA latent.
Matrix class_latent(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kDim = 10;
  constexpr std::size_t kClasses = 4;
  Rng rng(seed);
  Matrix centers(kClasses, kDim);
  for (std::size_t k = 0; k < kClasses; ++k) {
    for (auto& v : centers.row(k)) v = 4.0 * rng.normal();
  }
  Matrix pts(n, kDim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % kClasses;
    const double spread = 0.6 + 0.3 * static_cast<double>(k);
    for (std::size_t c = 0; c < kDim; ++c) {
      pts(i, c) = centers(k, c) + spread * rng.normal();
    }
  }
  return pts;
}

/// OPTICS on the geometry the monitor clusters: the 2-D UMAP layout of the
/// four-class latent, built as BM_UmapLayout builds it (k = 15 exact kNN
/// graph, 200 epochs) before timing, then min_pts 30 and max_eps = inf as
/// in the snapshot. Both phases run on the d = 2 cell grid.
void BM_OpticsUmapLayout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix latent = class_latent(n, 61);
  embed::UmapConfig config;
  config.n_epochs = 200;
  const Matrix layout = embed::umap_embed_graph(
      latent, embed::exact_knn(latent, config.n_neighbors), config);
  linalg::Workspace ws;
  for (auto _ : state) {
    const cluster::OpticsResult r =
        cluster::optics(layout, cluster::OpticsConfig{30}, ws, {});
    benchmark::DoNotOptimize(r.order.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_OpticsUmapLayout)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The same pass with the per-pair scalar arithmetic (use_gemm = false),
/// as HDBSCAN runs it.
void BM_CoreDistancesNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = clustered_embedding(n, 21);
  for (auto _ : state) {
    const std::vector<double> core =
        cluster::core_distances(pts, 29, {.use_gemm = false});
    benchmark::DoNotOptimize(core.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n));
}
BENCHMARK(BM_CoreDistancesNaive)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The snapshot's reservoir projection: 4608 rows of 4096 pixels, each in
/// its own vector as in the monitor's reservoir, through 10 components.
void BM_ProjectRows(benchmark::State& state) {
  constexpr std::size_t kRows = 4608;
  constexpr std::size_t kDim = 4096;
  const embed::PcaProjector pca(random_matrix(24, kDim, 31), 10);
  std::vector<std::vector<double>> reservoir(kRows);
  Rng rng(32);
  for (auto& row : reservoir) {
    row.resize(kDim);
    rng.fill_normal(row);
  }
  for (auto _ : state) {
    const Matrix latent = pca.project_rows(kRows, [&](std::size_t i) {
      return std::span<const double>(reservoir[i]);
    });
    benchmark::DoNotOptimize(latent.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows * kDim * 8));
}
BENCHMARK(BM_ProjectRows)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_UmapEpoch(benchmark::State& state) {
  const Matrix pts = random_matrix(600, 16, 13);
  embed::UmapConfig config;
  config.n_neighbors = 12;
  config.n_epochs = 50;
  linalg::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::umap_embed(pts, config, ws).data());
  }
}
BENCHMARK(BM_UmapEpoch)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The monitor's full snapshot embed: 4608 reservoir rows, 10 PCA
/// components, the Fig. 6 config's 200 epochs (rpforest kNN above the
/// 4096-point exact threshold, then the layout).
void BM_UmapEmbed(benchmark::State& state) {
  const Matrix pts = random_matrix(4608, 10, 14);
  embed::UmapConfig config;
  config.n_epochs = 200;
  linalg::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::umap_embed(pts, config, ws).data());
  }
}
BENCHMARK(BM_UmapEmbed)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The layout alone: umap_embed_graph at the Fig. 6 config's 200 epochs on
/// a k = 15 exact kNN graph built before timing, so no forest build is in
/// the row (unlike BM_UmapEmbed). 4608 is the snapshot reservoir.
void BM_UmapLayout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix pts = class_latent(n, 61);
  embed::UmapConfig config;
  config.n_epochs = 200;
  const embed::KnnGraph graph = embed::exact_knn(pts, config.n_neighbors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        embed::umap_embed_graph(pts, graph, config).data());
  }
}
BENCHMARK(BM_UmapLayout)
    ->Arg(2048)
    ->Arg(4608)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
