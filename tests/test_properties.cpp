// Cross-module invariants: equivariances, determinism, and identities the
// individual unit suites do not cover.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fd.hpp"
#include "core/merge.hpp"
#include "core/priority_sampler.hpp"
#include "data/synthetic.hpp"
#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "priority_sampler_oracle.hpp"
#include "rng/rng.hpp"
#include "stream/pipeline.hpp"
#include "util/check.hpp"

namespace arams {
namespace {

using core::FdConfig;
using core::FrequentDirections;
using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) rng.fill_normal(m.row(i));
  return m;
}

Matrix run_fd(const Matrix& a, std::size_t ell) {
  FrequentDirections fd(FdConfig{ell, true});
  fd.append_batch(a);
  fd.compress();
  return fd.sketch();
}

TEST(FdEquivariance, ScalingCommutesWithSketching) {
  // FD(c·A) = c·FD(A): the rotation is scale-equivariant and δ scales by
  // c², so the shrunk rows scale by c exactly.
  const Matrix a = random_matrix(60, 12, 1);
  constexpr double kScale = 3.5;
  Matrix scaled = a;
  for (std::size_t i = 0; i < scaled.rows(); ++i) {
    linalg::scale(scaled.row(i), kScale);
  }
  const Matrix b1 = run_fd(a, 6);
  Matrix b1_scaled = b1;
  for (std::size_t i = 0; i < b1_scaled.rows(); ++i) {
    linalg::scale(b1_scaled.row(i), kScale);
  }
  const Matrix b2 = run_fd(scaled, 6);
  ASSERT_EQ(b1.rows(), b2.rows());
  // Rows may differ by sign (SVD sign ambiguity); compare Gram matrices,
  // which are sign-invariant.
  const Matrix g1 = linalg::gram_cols(b1_scaled);
  const Matrix g2 = linalg::gram_cols(b2);
  EXPECT_LT(Matrix::max_abs_diff(g1, g2),
            1e-8 * linalg::frobenius_norm(g1));
}

TEST(FdEquivariance, RotationCommutesWithSketchError) {
  // For orthogonal Q: ‖(AQ)ᵀ(AQ) − B_Qᵀ B_Q‖ equals the unrotated error
  // (FD interacts only with singular values).
  const Matrix a = random_matrix(50, 10, 2);
  Rng qrng(3);
  const Matrix q = data::random_orthogonal(10, 10, qrng);
  const Matrix aq = linalg::matmul(a, q);

  const Matrix b = run_fd(a, 5);
  const Matrix bq = run_fd(aq, 5);
  Rng p1(4), p2(4);
  const double err = linalg::covariance_error(a, b, p1, 150);
  const double err_q = linalg::covariance_error(aq, bq, p2, 150);
  EXPECT_NEAR(err, err_q, 1e-6 * std::max(err, 1.0));
}

TEST(FdDeterminism, SameInputSameSketch) {
  const Matrix a = random_matrix(70, 9, 5);
  const Matrix b1 = run_fd(a, 6);
  const Matrix b2 = run_fd(a, 6);
  EXPECT_EQ(Matrix::max_abs_diff(b1, b2), 0.0);
}

TEST(PrioritySampler, SubsetSumEstimatorUnbiased) {
  // Duffield–Lund–Thorup: with the kept sample S and threshold τ,
  // E[Σ_{i∈S} max(wᵢ, τ)] = Σᵢ wᵢ.
  Matrix a(40, 1);
  Rng wrng(6);
  double true_sum = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    a(i, 0) = std::abs(wrng.normal()) + 0.05;
    true_sum += a(i, 0) * a(i, 0);  // weight = squared norm
  }
  double mean_estimate = 0.0;
  constexpr int kReps = 2000;
  for (int rep = 0; rep < kReps; ++rep) {
    core::PrioritySamplerConfig config;
    config.rescale = false;  // keep raw rows; estimate by hand
    config.seed = static_cast<std::uint64_t>(rep) * 13 + 1;
    test::PrioritySampler sampler(10, config);
    sampler.push_batch(a);
    const Matrix sample = sampler.take();
    const double tau = sampler.last_threshold();
    double estimate = 0.0;
    for (std::size_t i = 0; i < sample.rows(); ++i) {
      const double w = sample(i, 0) * sample(i, 0);
      estimate += std::max(w, tau);
    }
    mean_estimate += estimate / kReps;
  }
  EXPECT_NEAR(mean_estimate, true_sum, 0.05 * true_sum);
}

TEST(Merge, PairTreeEqualsSerialExactly) {
  // With exactly two sketches, both strategies perform the same single
  // shrink of the same stack — results must be bit-comparable.
  const Matrix s1 = run_fd(random_matrix(30, 8, 7), 5);
  const Matrix s2 = run_fd(random_matrix(30, 8, 8), 5);
  const Matrix serial = core::serial_merge({s1, s2}, 5);
  const Matrix tree = core::tree_merge({s1, s2}, 5);
  EXPECT_EQ(Matrix::max_abs_diff(serial, tree), 0.0);
}

TEST(Merge, HeterogeneousSketchSizesAccepted) {
  // Merging sketches with different row counts (one core saw fewer rows)
  // must work and respect the ℓ bound.
  const Matrix small = random_matrix(2, 8, 9);
  const Matrix large = run_fd(random_matrix(50, 8, 10), 6);
  const Matrix merged = core::merge_group({small, large}, 6);
  EXPECT_LE(merged.rows(), 6u);
  EXPECT_EQ(merged.cols(), 8u);
}

TEST(Merge, OrderIndependenceOfGuarantee) {
  // Merging [s1, s2, s3] in any order keeps the covariance bound against
  // the union (the sketches themselves may differ).
  std::vector<Matrix> shards;
  Matrix full;
  for (int i = 0; i < 3; ++i) {
    Matrix shard = random_matrix(40, 10, 11 + static_cast<unsigned>(i));
    full = Matrix::vstack(full, shard);
    shards.push_back(std::move(shard));
  }
  std::vector<Matrix> sketches;
  for (const auto& s : shards) sketches.push_back(run_fd(s, 8));
  const double bound = linalg::frobenius_norm_squared(full) / 8.0;

  const std::size_t orders[][3] = {{0, 1, 2}, {2, 0, 1}, {1, 2, 0}};
  for (const auto& order : orders) {
    std::vector<Matrix> permuted;
    for (const std::size_t idx : order) permuted.push_back(sketches[idx]);
    const Matrix merged = core::serial_merge(std::move(permuted), 8);
    Rng power(12);
    EXPECT_LE(linalg::covariance_error(full, merged, power, 120),
              2.0 * bound);
  }
}

TEST(Pca, ProjectionOfReconstructionIsIdentity) {
  const Matrix sketch = random_matrix(6, 20, 13);
  const embed::PcaProjector pca(sketch, 4);
  const Matrix z = random_matrix(15, 4, 14);
  const Matrix z2 = pca.project(pca.reconstruct(z));
  EXPECT_LT(Matrix::max_abs_diff(z2, z), 1e-9);
}

TEST(Umap, ThreeComponentEmbeddingWorks) {
  const Matrix pts = random_matrix(60, 6, 15);
  embed::UmapConfig config;
  config.n_neighbors = 10;
  config.n_components = 3;
  config.n_epochs = 80;
  const Matrix y = embed::umap_embed(pts, config);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Pipeline, FullyDeterministicGivenConfig) {
  const Matrix rows = random_matrix(80, 16, 16);
  stream::PipelineConfig config;
  config.sketch.ell = 10;
  config.num_cores = 2;
  config.pca_components = 6;
  config.umap.n_neighbors = 8;
  config.umap.n_epochs = 60;
  const stream::MonitoringPipeline pipeline(config);
  const auto r1 = pipeline.analyze_matrix(rows);
  const auto r2 = pipeline.analyze_matrix(rows);
  EXPECT_EQ(Matrix::max_abs_diff(r1.embedding, r2.embedding), 0.0);
  EXPECT_EQ(r1.labels, r2.labels);
}

TEST(Pipeline, RowPermutationBoundsError) {
  // Permuting the stream changes the sketch but not its guarantee.
  const Matrix rows = random_matrix(100, 12, 17);
  Matrix reversed(100, 12);
  for (std::size_t i = 0; i < 100; ++i) {
    reversed.set_row(i, rows.row(99 - i));
  }
  const double bound = linalg::frobenius_norm_squared(rows) / 8.0;
  const Matrix* variants[] = {&rows, &reversed};
  for (const Matrix* m : variants) {
    const Matrix b = run_fd(*m, 8);
    Rng power(18);
    EXPECT_LE(linalg::covariance_error(rows, b, power, 120),
              bound * 1.001);
  }
}

}  // namespace
}  // namespace arams
