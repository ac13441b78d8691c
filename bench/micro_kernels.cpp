// Micro-kernel benchmarks (google-benchmark): the primitives that dominate
// the sketching pipeline — GEMM, row Gram, Gram-trick SVD vs Jacobi SVD,
// tridiagonal vs Jacobi eig, FD append throughput, the wide-row (d ≫ ℓ)
// ingest hot path (short-fat GEMM, FD shrink, one rank-adaptive decision
// and one priority-sampled batch), the row-band GEMM shapes, one sharded
// health check and one pool entry.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "core/error_tracker.hpp"
#include "core/fd.hpp"
#include "core/priority_sampler.hpp"
#include "core/rank_adaptive.hpp"
#include "core/sketcher.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "parallel/thread_pool.hpp"
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

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 11);
  const Matrix b = random_matrix(n, n, 12);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_tn(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_GemmTn)->Arg(64)->Arg(128)->Arg(256);

// The FD shrink's Gram B·Bᵀ of an m×d buffer. Args: m, d, and whether the
// loop runs on a pool worker. A shard's or a batch range's shrink runs
// there, where the Gram takes its serial path; from the main thread it
// fans out once above the pool threshold. 48×4096 is a diffraction_batch
// range's buffer, 64×16384 a 128×128-frame buffer at ℓ = 32.
void BM_GramRows(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const Matrix a = random_matrix(m, d, 3);
  Matrix out;
  const auto loop = [&] {
    for (auto _ : state) {
      linalg::gram_rows(a, out);
      benchmark::DoNotOptimize(out.data());
    }
  };
  if (state.range(2) != 0) {
    parallel::shared_pool().parallel_for(1, [&](std::size_t) { loop(); });
  } else {
    loop();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m * m * d));
}
BENCHMARK(BM_GramRows)
    ->Args({16, 2048, 0})
    ->Args({64, 2048, 0})
    ->Args({128, 2048, 0})
    ->Args({48, 4096, 1})
    ->Args({64, 16384, 1})
    ->Args({64, 16384, 0})
    ->UseRealTime();

// One parallel_for on the shared pool. Args: items, and each item's spin
// in µs (0: an empty body). Wall time: 4 items of a 500 µs spin take
// 0.5 ms when they overlap on 4 threads and 2 ms when they run one after
// another.
void BM_ParallelForEntry(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  const std::chrono::microseconds spin{state.range(1)};
  for (auto _ : state) {
    parallel::shared_pool().parallel_for(items, [&](std::size_t i) {
      if (spin.count() > 0) {
        const auto until = std::chrono::steady_clock::now() + spin;
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      benchmark::DoNotOptimize(i);
    });
  }
}
BENCHMARK(BM_ParallelForEntry)
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({4, 500})
    ->UseRealTime();

void BM_GramRowSvd(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram_row_svd(a));
  }
}
BENCHMARK(BM_GramRowSvd)->Arg(16)->Arg(64)->Arg(128);

// Same decomposition through a caller-owned Workspace: after the first
// iteration every scratch buffer is recycled, so this isolates the pure
// compute cost the FD shrink loop pays at steady state.
void BM_GramRowSvdWorkspace(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 4);
  linalg::Workspace ws;
  linalg::RowSpaceSvd out;
  for (auto _ : state) {
    linalg::gram_row_svd(a, ws, out);
    benchmark::DoNotOptimize(out.w.data());
  }
}
BENCHMARK(BM_GramRowSvdWorkspace)->Arg(16)->Arg(64)->Arg(128);

void BM_JacobiSvdReference(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  // Same shape as the Gram-trick case: shows why the production kernel
  // avoids the O(m·d²) path.
  const Matrix a = random_matrix(m, 512, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_svd(a));
  }
}
BENCHMARK(BM_JacobiSvdReference)->Arg(16)->Arg(32);

void BM_JacobiEig(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen_symmetric(a));
  }
}
BENCHMARK(BM_JacobiEig)->Arg(32)->Arg(64)->Arg(128);

// Head-to-head symmetric eigensolver comparison on the Gram matrices the
// FD shrink produces: the production solver against the Jacobi reference,
// each with a caller-owned workspace (steady-state, allocation-free),
// values + full eigenvectors — the shrink's actual request shape.
void BM_EigSymJacobi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  linalg::Workspace ws;
  linalg::SymmetricEig out;
  for (auto _ : state) {
    linalg::jacobi_eigen_symmetric(linalg::MatrixView(a), ws, out);
    benchmark::DoNotOptimize(out.vectors.data());
  }
}
BENCHMARK(BM_EigSymJacobi)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_EigSymTridiag(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  linalg::Workspace ws;
  linalg::SymmetricEig out;
  for (auto _ : state) {
    linalg::eigen_symmetric(linalg::MatrixView(a), ws, out);
    benchmark::DoNotOptimize(out.vectors.data());
  }
}
BENCHMARK(BM_EigSymTridiag)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Eigenvalues only: the tridiagonal path drops the O(n³) rotation
// accumulation entirely (dsterf-style O(n²) iteration).
void BM_EigSymTridiagValuesOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  linalg::Workspace ws;
  linalg::SymmetricEig out;
  linalg::EigenConfig cfg;
  cfg.vectors = false;
  for (auto _ : state) {
    linalg::eigen_symmetric(linalg::MatrixView(a), ws, out, cfg);
    benchmark::DoNotOptimize(out.values.data());
  }
}
BENCHMARK(BM_EigSymTridiagValuesOnly)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// End-to-end FD shrink: fill the 2ℓ buffer, then time exactly one shrink
// per iteration (ℓ fresh rows re-fill the buffer each pass). ℓ=64 on
// 1024-dim rows is the paper's operating regime.
void BM_FdShrinkTridiag(benchmark::State& state) {
  constexpr std::size_t kEll = 64;
  constexpr std::size_t kDim = 1024;
  const Matrix block = random_matrix(kEll, kDim, 42);
  core::FrequentDirections fd(core::FdConfig{kEll, true});
  fd.append_batch(random_matrix(2 * kEll - 1, kDim, 43));  // buffer ~full
  for (auto _ : state) {
    fd.append_batch(block);  // crosses 2ℓ: exactly one shrink
    benchmark::DoNotOptimize(fd.occupied_rows());
  }
}
BENCHMARK(BM_FdShrinkTridiag);

void BM_RandomizedSvd(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(512, 256, 9);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::randomized_svd(a, k, rng));
  }
}
BENCHMARK(BM_RandomizedSvd)->Arg(8)->Arg(16)->Arg(32);

void BM_FdAppendThroughput(benchmark::State& state) {
  const auto ell = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDim = 1024;
  const Matrix rows = random_matrix(512, kDim, 7);
  for (auto _ : state) {
    core::FrequentDirections fd(core::FdConfig{ell, true});
    fd.append_batch(rows);
    benchmark::DoNotOptimize(fd.occupied_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_FdAppendThroughput)->Arg(16)->Arg(32)->Arg(64);

// ---- wide rows (d ≫ ℓ): the beam_ingest operating point, 128×128 frames
// (d = 16384) sketched at ℓ = 32 with ν = 10 probes and 256-frame batches.
constexpr std::size_t kWideDim = 16384;
constexpr std::size_t kWideEll = 32;

// The shrink's back-multiplication Uᵀ·B: 2ℓ×ℓ coefficients against the
// 2ℓ×d buffer — short and fat, 32 column blocks against 8 row tiles.
void BM_WideGemmShrinkTn(benchmark::State& state) {
  const Matrix u = random_matrix(2 * kWideEll, kWideEll, 60);
  const Matrix b = random_matrix(2 * kWideEll, kWideDim, 61);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_tn(u, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * kWideEll * kWideEll *
                                               kWideDim));
}
BENCHMARK(BM_WideGemmShrinkTn)->UseRealTime();

// The probe block Y = G·X: ν Gaussian rows against the ℓ recent rows.
void BM_WideGemmProbe(benchmark::State& state) {
  const Matrix g = random_matrix(10, kWideEll, 62);
  const Matrix x = random_matrix(kWideEll, kWideDim, 63);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul(g, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(10 * kWideEll * kWideDim));
}
BENCHMARK(BM_WideGemmProbe)->UseRealTime();

// One FD shrink of the full 2ℓ×d buffer per iteration: ℓ fresh rows
// re-fill it each pass (one pass in ℓ ends just short of a shrink).
void BM_WideFdShrink(benchmark::State& state) {
  const Matrix block = random_matrix(kWideEll, kWideDim, 64);
  core::FrequentDirections fd(core::FdConfig{kWideEll, true});
  fd.append_batch(random_matrix(2 * kWideEll - 1, kWideDim, 65));
  for (auto _ : state) {
    fd.append_batch(block);
    benchmark::DoNotOptimize(fd.occupied_rows());
  }
}
BENCHMARK(BM_WideFdShrink)->UseRealTime();

// The same shrink plus one Algorithm-1 decision (ν = 10 probes over the ℓ
// recent rows against the post-shrink basis); ε is unreachable, so ℓ stays
// fixed. The difference to BM_WideFdShrink is the decision's cost.
void BM_WideRankAdaptiveDecision(benchmark::State& state) {
  const Matrix block = random_matrix(kWideEll, kWideDim, 66);
  core::RankAdaptiveConfig config;
  config.initial_ell = kWideEll;
  config.nu = 10;
  config.epsilon = 1e6;
  core::RankAdaptiveFd fd(config);
  fd.append_batch(random_matrix(2 * kWideEll, kWideDim, 67));
  for (auto _ : state) {
    fd.append_batch(block);  // one shrink, one decision
    benchmark::DoNotOptimize(fd.last_error_estimate());
  }
}
BENCHMARK(BM_WideRankAdaptiveDecision)->UseRealTime();

// Stage 1 of ARAMS on one 256-frame batch at β = 0.8.
void BM_WidePrioritySample(benchmark::State& state) {
  const Matrix batch = random_matrix(256, kWideDim, 68);
  core::PrioritySamplerConfig config;
  core::PrioritySampleScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::priority_sample(batch, 0.8, config, scratch).data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_WidePrioritySample)->UseRealTime();

// ---- row-band GEMM: tall products over a narrow output, where the row
// tiles outnumber the column blocks. Args m, n, k of C = A·Bᵀ (NT): the
// health check's R·Vᵀ (256-row reservoir, ℓ = 32 basis, d = 16384) and
// project_rows' 4608 frames onto 10 components at d = 4096.
void BM_GemmRowBand(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const Matrix a = random_matrix(m, k, 70);
  const Matrix bt = random_matrix(n, k, 71);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_nt(a, bt, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GemmRowBand)
    ->Args({256, 32, 16384})
    ->Args({4608, 10, 4096})
    ->UseRealTime();

// ---- one per-batch numerics health check of the diffraction_ingest_f32x4
// lane: a 4-shard fp32 sharded:arams sketch (d = 16384, ℓ = 32, β = 0.8,
// fixed rank) takes one 256-row batch outside the timer, then the timed
// check runs basis(ℓ), relative_error on a 256-row reservoir that saw the
// batch, and the orthogonality Gram of the basis.
void BM_ShardedHealthCheck(benchmark::State& state) {
  constexpr std::size_t kBatch = 256;
  core::SketcherConfig config;
  config.backend = "sharded:arams";
  config.shards = 4;
  config.arams.ell = kWideEll;
  config.arams.rank_adaptive = false;
  const auto sketcher = core::make_sketcher(config);
  core::SketchErrorTracker tracker{core::ErrorTrackerConfig{}};
  std::vector<Matrix> wide;
  std::vector<linalg::MatrixF> batches;
  for (std::uint64_t b = 0; b < 4; ++b) {
    wide.push_back(random_matrix(kBatch, kWideDim, 72 + b));
    batches.push_back(linalg::MatrixF::from_matrix(wide.back()));
  }
  const auto push = [&](std::size_t b) {
    sketcher->push_batch(linalg::MatrixViewF(batches[b % 4]));
    tracker.observe_batch(wide[b % 4]);
  };
  std::size_t next = 0;
  for (; next < 8; ++next) push(next);
  for (auto _ : state) {
    state.PauseTiming();
    push(next++);
    state.ResumeTiming();
    const Matrix basis = sketcher->basis(sketcher->current_ell());
    benchmark::DoNotOptimize(tracker.relative_error(basis));
    benchmark::DoNotOptimize(linalg::gram_rows(basis).data());
  }
}
BENCHMARK(BM_ShardedHealthCheck)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
