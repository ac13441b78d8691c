// PCA projection from a sketch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/fd.hpp"
#include "data/synthetic.hpp"
#include "embed/pca.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rerun_self.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::embed {
namespace {

using linalg::Matrix;

// project_rows runs on the shared pool, whose size is read once, before
// first use: this process runs at pool size 4 and
// ProjectRowsHoldsOnAOneThreadPool re-runs the check at pool size 1. An
// explicit ARAMS_POOL_THREADS wins.
const int g_pool_env = ::setenv("ARAMS_POOL_THREADS", "4", 0);

TEST(Pca, EmptySketchThrows) {
  EXPECT_THROW(PcaProjector(Matrix(), 2), CheckError);
}

TEST(Pca, ZeroComponentsThrows) {
  EXPECT_THROW(PcaProjector(Matrix(2, 3), 0), CheckError);
}

TEST(Pca, BasisIsOrthonormal) {
  Rng rng(1);
  Matrix sketch(6, 20);
  for (std::size_t i = 0; i < 6; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 4);
  EXPECT_EQ(pca.components(), 4u);
  EXPECT_EQ(pca.dim(), 20u);
  EXPECT_LT(linalg::orthonormality_defect(pca.basis().transposed()), 1e-8);
}

TEST(Pca, ComponentCountCappedByRank) {
  // Rank-2 sketch: asking for 5 components returns 2.
  Matrix sketch(4, 10);
  Rng rng(2);
  std::vector<double> u(10), v(10);
  rng.fill_normal(u);
  rng.fill_normal(v);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      sketch(i, j) = static_cast<double>(i + 1) * u[j] +
                     static_cast<double>(4 - i) * v[j];
    }
  }
  const PcaProjector pca(sketch, 5);
  EXPECT_EQ(pca.components(), 2u);
}

TEST(Pca, ProjectionDimensionMismatchThrows) {
  Rng rng(3);
  Matrix sketch(3, 8);
  for (std::size_t i = 0; i < 3; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 2);
  EXPECT_THROW(pca.project(Matrix(5, 7)), CheckError);
}

TEST(Pca, ProjectionRecoversLowRankData) {
  // Data in a 3-D subspace: 3-component PCA from a sketch must reconstruct
  // it nearly exactly.
  data::SyntheticConfig config;
  config.n = 120;
  config.d = 30;
  config.spectrum.kind = data::DecayKind::kStep;
  config.spectrum.count = 3;
  config.spectrum.step_rank = 3;
  config.spectrum.step_floor = 0.0;
  Rng rng(4);
  const Matrix a = data::make_low_rank(config, rng);

  core::FrequentDirections fd(core::FdConfig{8, true});
  fd.append_batch(a);
  fd.compress();
  const PcaProjector pca(fd.sketch(), 3);
  const Matrix z = pca.project(a);
  EXPECT_EQ(z.rows(), 120u);
  EXPECT_EQ(z.cols(), 3u);
  const Matrix back = pca.reconstruct(z);
  EXPECT_LT(Matrix::max_abs_diff(back, a), 1e-6);
}

TEST(Pca, CapturedVarianceDominates) {
  data::SyntheticConfig config;
  config.n = 200;
  config.d = 40;
  config.spectrum.kind = data::DecayKind::kExponential;
  config.spectrum.count = 20;
  config.spectrum.rate = 0.4;
  Rng rng(5);
  const Matrix a = data::make_low_rank(config, rng);

  core::FrequentDirections fd(core::FdConfig{12, true});
  fd.append_batch(a);
  fd.compress();
  const PcaProjector pca(fd.sketch(), 6);
  const double residual = linalg::projection_residual_exact(a, pca.basis());
  EXPECT_LT(residual, 0.05 * linalg::frobenius_norm_squared(a));
}

TEST(Pca, TallSketchPathWorks) {
  // rows > cols exercises the jacobi_svd branch.
  Rng rng(6);
  Matrix sketch(20, 6);
  for (std::size_t i = 0; i < 20; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 3);
  EXPECT_EQ(pca.components(), 3u);
  EXPECT_LT(linalg::orthonormality_defect(pca.basis().transposed()), 1e-8);
}

TEST(Pca, SingularValuesDescend) {
  Rng rng(7);
  Matrix sketch(8, 16);
  for (std::size_t i = 0; i < 8; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 5);
  const auto& sv = pca.singular_values();
  ASSERT_EQ(sv.size(), pca.components());
  for (std::size_t i = 1; i < sv.size(); ++i) {
    EXPECT_GE(sv[i - 1], sv[i]);
  }
}

TEST(Pca, ProjectRowsIsBitwiseProject) {
  // project_rows runs one GEMM over rows read in place; every row must
  // come out bitwise as in one whole-matrix product. Covers n below, at
  // and across the 4-row tile with a partial tile at the tail, widths of
  // several GEMM k panels (2000, and 16384 as in a 128×128 frame), rows
  // held in separate vectors as in the monitor's reservoir, and products
  // large enough to run on the pool.
  const std::size_t threads = parallel::shared_pool().thread_count();
  std::printf("pool threads %zu\n", threads);
  const obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  Rng rng(8);
  for (const std::size_t dim : {std::size_t{2000}, std::size_t{16384}}) {
    Matrix sketch(12, dim);
    for (std::size_t i = 0; i < 12; ++i) rng.fill_normal(sketch.row(i));
    const PcaProjector pca(sketch, 10);
    const std::vector<std::size_t> sizes =
        dim == 2000 ? std::vector<std::size_t>{1030, 7, 64, 513}
                    : std::vector<std::size_t>{70, 3};
    for (const std::size_t n : sizes) {
      Matrix x(n, dim);
      std::vector<std::vector<double>> rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        rng.fill_normal(x.row(i));
        rows[i].assign(x.row(i).begin(), x.row(i).end());
      }
      const Matrix whole = pca.project(x);
      const long before = dispatches.value();
      const Matrix in_place = pca.project_rows(n, [&](std::size_t i) {
        return std::span<const double>(rows[i]);
      });
      // 2·n·10·dim flops: the 1030- and 513-row and the 70-row wide
      // products clear the GEMM's pool threshold.
      if (threads >= 2 && n >= 70) {
        EXPECT_GT(dispatches.value(), before) << "n=" << n;
      }
      ASSERT_EQ(in_place.rows(), whole.rows());
      ASSERT_EQ(in_place.cols(), whole.cols());
      for (std::size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(in_place.data()[i], whole.data()[i])
            << "dim=" << dim << ", n=" << n << ", element " << i;
      }
    }
  }
  EXPECT_THROW((void)PcaProjector(Matrix(2, 8), 1).project_rows(
                   1, [](std::size_t) { return std::span<const double>(); }),
               CheckError);
}

TEST(Pca, ProjectRowsHoldsOnAOneThreadPool) {
  const test::ChildRun run = test::rerun_self(
      "ARAMS_POOL_THREADS=1", "Pca.ProjectRowsIsBitwiseProject");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("pool threads 1\n"), std::string::npos)
      << run.output;
}

}  // namespace
}  // namespace arams::embed
