// Mixed-precision ingest lane benchmarks (google-benchmark): the fp32
// frame path (narrow frames → fp32 preprocess → fp32 flatten → the
// sketcher's fp32 entry point) head-to-head against the classic fp64 lane
// at equal ℓ and d, plus the mixed-precision GEMM against its all-fp64
// twin. The fp32 lane halves the memory traffic of everything before the
// sketch core while every accumulation stays fp64. The batch pipeline's
// first two stages close the file: Fig. 6 frames preprocessed into rows,
// and the num_cores range-sharded sketch of those rows.

#include <benchmark/benchmark.h>

#include "core/sketcher.hpp"
#include "data/diffraction.hpp"
#include "image/image.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "rng/rng.hpp"
#include "stream/pipeline.hpp"

namespace {

using namespace arams;
using linalg::Matrix;
using linalg::MatrixF;

constexpr std::size_t kFrames = 64;  ///< frames per ingest batch
constexpr std::size_t kEll = 16;     ///< sketch rank (equal in both lanes)

std::vector<image::ImageF> random_frames(std::size_t count, std::size_t side,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<image::ImageF> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    image::ImageF frame(side, side);
    for (std::size_t r = 0; r < side; ++r) {
      for (std::size_t c = 0; c < side; ++c) {
        // Non-negative intensities so threshold/normalize/center all do
        // real work (a zero-mass frame short-circuits the kernels).
        frame.at(r, c) = rng.uniform() + 0.05;
      }
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

core::SketcherConfig ingest_config() {
  core::SketcherConfig config;
  config.backend = "arams";
  config.ell = kEll;
  config.seed = 2024;
  config.arams.ell = kEll;
  config.arams.seed = 2024;
  // Priority sampling on, at the aggressive keep fraction of the
  // high-rate monitoring regime: the sketch core (whose fp64 work is
  // identical in both lanes by design) digests ~1/10 of the stream, so the
  // benchmark measures the ingest lane itself rather than the shared
  // shrink arithmetic.
  config.arams.beta = 0.1;
  config.arams.use_sampling = true;
  config.arams.rank_adaptive = false;
  return config;
}

image::PreprocessConfig preprocess_config() {
  image::PreprocessConfig config;  // threshold + center + normalize
  return config;
}

// Classic lane: fp64 frames end to end.
void BM_IngestF64(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const std::vector<image::ImageF> frames =
      random_frames(kFrames, side, 1);
  const image::PreprocessConfig prep = preprocess_config();
  const std::unique_ptr<core::Sketcher> sketcher =
      core::make_sketcher(ingest_config());
  for (auto _ : state) {
    const Matrix rows = image::preprocess_rows(frames, prep);
    sketcher->push_batch(rows);
    benchmark::DoNotOptimize(sketcher->current_ell());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFrames));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFrames * side * side *
                                               sizeof(double)));
}
BENCHMARK(BM_IngestF64)->Arg(64)->Arg(96)->Arg(128);

// Mixed-precision lane: the same frames narrowed once at the door, then
// fp32 preprocess, fp32 flatten, and the sketcher's fp32 entry point.
void BM_IngestF32(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  std::vector<image::ImageF32> frames;
  frames.reserve(kFrames);
  for (const image::ImageF& frame : random_frames(kFrames, side, 1)) {
    frames.push_back(image::narrow(frame));
  }
  const image::PreprocessConfig prep = preprocess_config();
  const std::unique_ptr<core::Sketcher> sketcher =
      core::make_sketcher(ingest_config());
  for (auto _ : state) {
    const MatrixF rows = image::preprocess_rows(frames, prep);
    sketcher->push_batch(linalg::MatrixViewF(rows));
    benchmark::DoNotOptimize(sketcher->current_ell());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFrames));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFrames * side * side *
                                               sizeof(float)));
}
BENCHMARK(BM_IngestF32)->Arg(64)->Arg(96)->Arg(128);

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) rng.fill_normal(m.row(i));
  return m;
}

// All-fp64 Aᵀ·B — the baseline the Gaussian backend's update used to pay.
void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 21);
  const Matrix b = random_matrix(n, n, 22);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_tn(linalg::MatrixView(a), linalg::MatrixView(b), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

// Mixed Aᵀ(fp64)·B(fp32): the fp32 panel widens at pack time into the
// fp64 micro-kernel, so B's streamed traffic halves while the arithmetic
// (and its result, bit for bit) stays fp64.
void BM_GemmMixed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 21);
  const Matrix b64 = random_matrix(n, n, 22);
  MatrixF b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = b64.row(i);
    auto dst = b.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = static_cast<float>(src[j]);
    }
  }
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_tn(linalg::MatrixView(a), linalg::MatrixViewF(b), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_GemmMixed)->Arg(128)->Arg(256)->Arg(512);

/// n 64×64 diffraction frames with the Fig. 6 generator settings.
std::vector<image::ImageF> fig6_frames(std::size_t n) {
  data::DiffractionConfig diff;
  diff.height = 64;
  diff.width = 64;
  diff.num_classes = 4;
  diff.photons_per_frame = 5e4;
  const data::DiffractionGenerator generator(diff);
  Rng rng(6);
  std::vector<image::ImageF> frames;
  frames.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back(generator.generate(rng).frame);
  }
  return frames;
}

/// The Fig. 6 preprocess config: threshold and normalize, no centring.
image::PreprocessConfig fig6_preprocess() {
  image::PreprocessConfig config;
  config.center = false;
  return config;
}

// Stage 1 of MonitoringPipeline::analyze: every frame preprocessed straight
// into its row of the n×4096 matrix, in bands of frames on the shared pool.
void BM_PreprocessRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<image::ImageF> frames = fig6_frames(n);
  const image::PreprocessConfig prep = fig6_preprocess();
  for (auto _ : state) {
    const Matrix rows = image::preprocess_rows(frames, prep);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PreprocessRows)
    ->Arg(512)
    ->Arg(4608)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Stage 2 of MonitoringPipeline::analyze_matrix on the Fig. 6 rows: four
// contiguous ranges at d = 4096, each sketched by its own Arams, then
// tree-merged. Timed by the stage's own report entry ("sketch"), so the
// untimed tail (a cut-down embedding and k-means) does not count.
void BM_RangeShardSketch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix rows = image::images_to_matrix(
      image::preprocess_batch(fig6_frames(n), fig6_preprocess()));
  stream::PipelineConfig config;
  config.sketch.ell = 24;
  config.num_cores = 4;
  config.pca_components = 2;
  config.umap.n_epochs = 1;
  config.cluster_method = stream::PipelineConfig::ClusterMethod::kKmeans;
  config.abod_k = 0;
  const stream::MonitoringPipeline pipeline(config);
  for (auto _ : state) {
    const stream::PipelineResult result = pipeline.analyze_matrix(rows);
    state.SetIterationTime(result.report.seconds("sketch"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RangeShardSketch)
    ->Arg(4608)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
