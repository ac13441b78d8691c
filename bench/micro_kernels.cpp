// Micro-kernel benchmarks (google-benchmark): the primitives that dominate
// the sketching pipeline — GEMM, row Gram, Gram-trick SVD vs Jacobi SVD,
// tridiagonal vs Jacobi eig, FD append throughput, and the wide-row
// (d ≫ ℓ) ingest hot path: short-fat GEMM, FD shrink, one rank-adaptive
// decision and one priority-sampled batch.

#include <benchmark/benchmark.h>

#include "core/fd.hpp"
#include "core/priority_sampler.hpp"
#include "core/rank_adaptive.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
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

void BM_GramRows(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram_rows(a));
  }
}
BENCHMARK(BM_GramRows)->Arg(16)->Arg(64)->Arg(128);

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

}  // namespace

BENCHMARK_MAIN();
