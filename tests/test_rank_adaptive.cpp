// Rank-Adaptive FD (Algorithms 1–2): the rank must grow to meet the error
// target on hard spectra, stay put on easy ones, and respect its guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rank_adaptive.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "data/synthetic.hpp"
#include "image/image.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::core {
namespace {

using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

RankAdaptiveConfig base_config() {
  RankAdaptiveConfig config;
  config.initial_ell = 8;
  config.nu = 8;
  config.epsilon = 0.10;
  config.relative_error = true;
  config.seed = 7;
  return config;
}

TEST(RankAdaptive, InvalidConfigThrows) {
  RankAdaptiveConfig config = base_config();
  config.nu = 0;
  EXPECT_THROW(RankAdaptiveFd{config}, CheckError);
  config = base_config();
  config.epsilon = -1.0;
  EXPECT_THROW(RankAdaptiveFd{config}, CheckError);
}

TEST(RankAdaptive, RankStepDefaultsToNu) {
  RankAdaptiveConfig config = base_config();
  config.rank_step = 0;
  const RankAdaptiveFd fd(config);
  EXPECT_EQ(fd.config().rank_step, static_cast<std::size_t>(config.nu));
}

TEST(RankAdaptive, GrowsRankOnFullRankNoise) {
  // White noise has no low-rank structure: relative residual stays high,
  // so the rank must keep climbing.
  RankAdaptiveConfig config = base_config();
  config.epsilon = 0.05;
  RankAdaptiveFd fd(config);
  Rng rng(1);
  fd.append_batch(random_matrix(600, 64, rng));
  EXPECT_GT(fd.ell(), config.initial_ell);
  EXPECT_GT(fd.stats().rank_increases, 0);
}

TEST(RankAdaptive, KeepsRankOnExactlyLowRankData) {
  data::SyntheticConfig dconfig;
  dconfig.n = 400;
  dconfig.d = 50;
  dconfig.spectrum.kind = data::DecayKind::kStep;
  dconfig.spectrum.count = 4;
  dconfig.spectrum.step_rank = 4;
  dconfig.spectrum.step_floor = 0.0;
  Rng rng(2);
  const Matrix a = data::make_low_rank(dconfig, rng);

  RankAdaptiveConfig config = base_config();
  config.initial_ell = 8;  // already above the true rank of 4
  config.epsilon = 0.05;
  RankAdaptiveFd fd(config);
  fd.append_batch(a);
  EXPECT_EQ(fd.ell(), config.initial_ell);
  EXPECT_EQ(fd.stats().rank_increases, 0);
}

TEST(RankAdaptive, MaxEllCapsGrowth) {
  RankAdaptiveConfig config = base_config();
  config.epsilon = 0.01;
  config.max_ell = 12;
  RankAdaptiveFd fd(config);
  Rng rng(3);
  fd.append_batch(random_matrix(500, 40, rng));
  EXPECT_LE(fd.ell(), 12u);
}

TEST(RankAdaptive, RowsLeftGuardBlocksLateAdaptation) {
  // With rows_remaining announced, the guard rowsLeft > ℓ + ν must prevent
  // growth near the end of the stream (Algorithm 2 line 8).
  RankAdaptiveConfig config = base_config();
  config.initial_ell = 8;
  config.nu = 8;
  config.epsilon = 1e-9;  // would always want to grow
  RankAdaptiveFd fd(config);
  Rng rng(4);
  const Matrix a = random_matrix(24, 16, rng);  // 24 ≤ ℓ+ν after warmup
  fd.set_rows_remaining(static_cast<long>(a.rows()));
  fd.append_batch(a);
  EXPECT_EQ(fd.ell(), config.initial_ell);
}

TEST(RankAdaptive, ProcessReturnsCompressedSketch) {
  RankAdaptiveConfig config = base_config();
  RankAdaptiveFd fd(config);
  Rng rng(5);
  const Matrix a = random_matrix(300, 32, rng);
  const Matrix sketch = fd.process(a);
  EXPECT_LE(sketch.rows(), fd.ell());
  EXPECT_EQ(sketch.cols(), 32u);
}

TEST(RankAdaptive, ErrorEstimateIsPopulated) {
  RankAdaptiveConfig config = base_config();
  RankAdaptiveFd fd(config);
  Rng rng(6);
  fd.append_batch(random_matrix(200, 24, rng));
  EXPECT_FALSE(std::isnan(fd.last_error_estimate()));
  EXPECT_GE(fd.last_error_estimate(), 0.0);
}

TEST(RankAdaptive, FdGuaranteeStillHoldsAtFinalEll) {
  Rng rng(7);
  const Matrix a = random_matrix(400, 30, rng);
  RankAdaptiveConfig config = base_config();
  config.epsilon = 0.2;
  RankAdaptiveFd fd(config);
  const Matrix sketch = fd.process(a);
  Rng power(8);
  const double err = linalg::covariance_error(a, sketch, power, 150);
  // The guarantee with the *initial* ℓ is the conservative bound; the
  // adaptive run only ever grows ℓ, so it must hold a fortiori.
  const double bound = linalg::frobenius_norm_squared(a) /
                       static_cast<double>(config.initial_ell);
  EXPECT_LE(err, bound * 1.001);
}

/// Smaller ε ⇒ final rank no smaller (monotonicity of adaptation).
class EpsilonMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonMonotonicity, TighterEpsilonNeverShrinksRank) {
  const double eps = GetParam();
  Rng rng(10);
  const Matrix a = random_matrix(500, 48, rng);

  RankAdaptiveConfig loose = base_config();
  loose.epsilon = eps * 4.0;
  RankAdaptiveConfig tight = base_config();
  tight.epsilon = eps;

  RankAdaptiveFd fd_loose(loose);
  fd_loose.append_batch(a);
  RankAdaptiveFd fd_tight(tight);
  fd_tight.append_batch(a);
  EXPECT_GE(fd_tight.ell(), fd_loose.ell());
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonMonotonicity,
                         ::testing::Values(0.02, 0.05, 0.1));

TEST(RankAdaptive, AbsoluteErrorModeRuns) {
  RankAdaptiveConfig config = base_config();
  config.relative_error = false;
  config.epsilon = 1e6;  // generous absolute threshold: no growth expected
  RankAdaptiveFd fd(config);
  Rng rng(11);
  fd.append_batch(random_matrix(150, 20, rng));
  EXPECT_EQ(fd.stats().rank_increases, 0);
}

/// All three residual estimators drive the same qualitative adaptation:
/// growth on noise, none on exactly low-rank data.
class EstimatorVariants
    : public ::testing::TestWithParam<linalg::ResidualEstimator> {};

TEST_P(EstimatorVariants, GrowsOnNoiseKeepsOnLowRank) {
  RankAdaptiveConfig config = base_config();
  config.estimator = GetParam();
  config.epsilon = 0.05;

  {
    RankAdaptiveFd fd(config);
    Rng rng(31);
    fd.append_batch(random_matrix(500, 48, rng));
    EXPECT_GT(fd.ell(), config.initial_ell)
        << linalg::residual_estimator_name(GetParam());
  }
  {
    data::SyntheticConfig dc;
    dc.n = 300;
    dc.d = 40;
    dc.spectrum.kind = data::DecayKind::kStep;
    dc.spectrum.count = 4;
    dc.spectrum.step_rank = 4;
    dc.spectrum.step_floor = 0.0;
    Rng rng(32);
    RankAdaptiveFd fd(config);
    fd.append_batch(data::make_low_rank(dc, rng));
    EXPECT_EQ(fd.ell(), config.initial_ell)
        << linalg::residual_estimator_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Estimators, EstimatorVariants,
    ::testing::Values(linalg::ResidualEstimator::kGaussianProbes,
                      linalg::ResidualEstimator::kHutchinson,
                      linalg::ResidualEstimator::kHutchPlusPlus));

TEST(RankAdaptive, ProbeBudgetIsAccounted) {
  RankAdaptiveConfig config = base_config();
  RankAdaptiveFd fd(config);
  Rng rng(12);
  fd.append_batch(random_matrix(200, 16, rng));
  // Every estimate consumed exactly ν probes.
  EXPECT_EQ(fd.stats().probe_count % config.nu, 0);
  EXPECT_GT(fd.stats().probe_count, 0);
}

// ------------------------------------------- blocked Algorithm 1 probes
//
// The estimator runs its ν probes as three GEMMs (Y = G·X, C = Y·Vᵀ,
// Ŷ = C·V). The per-probe form below — three gemv sweeps per probe — is the
// reference it replaced; both draw G from the RNG in the same order, so
// they differ only in floating-point summation order.

double per_probe_reference(const Matrix& x, const Matrix& v, int probes,
                           Rng& rng) {
  std::vector<double> g(x.rows());
  std::vector<double> y(x.cols());
  std::vector<double> c(v.rows());
  std::vector<double> yhat(x.cols());
  double acc = 0.0;
  for (int p = 0; p < probes; ++p) {
    rng.fill_normal(g);
    linalg::gemv_t(x, g, y);
    linalg::gemv(v, y, c);
    linalg::gemv_t(v, c, yhat);
    double r = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      r += (y[i] - yhat[i]) * (y[i] - yhat[i]);
    }
    acc += r;
  }
  return acc / probes;
}

/// Orthonormal k×d basis of a random stream's FD sketch — the shape
/// post_shrink_basis hands the estimator.
Matrix sketch_basis(std::size_t k, std::size_t d, Rng& rng) {
  FrequentDirections fd(FdConfig{k + 1, true});
  fd.append_batch(random_matrix(4 * (k + 1), d, rng));
  return fd.basis(k);
}

TEST(RankAdaptive, BlockedEstimateMatchesPerProbeReference) {
  // (n, d, k, ν): a small shape, and the beam_ingest decision shape
  // (ℓ = 32 recent rows of 128×128 frames against a 31-row basis).
  const std::size_t shapes[][4] = {{8, 50, 5, 3}, {32, 16384, 31, 10}};
  for (const auto& s : shapes) {
    Rng data(s[0] + s[1]);
    const Matrix x = random_matrix(s[0], s[1], data);
    const Matrix v = sketch_basis(s[2], s[1], data);
    const int nu = static_cast<int>(s[3]);
    Rng blocked_rng(99);
    Rng reference_rng(99);
    const double blocked =
        linalg::estimate_projection_residual(x, v, nu, blocked_rng);
    const double reference = per_probe_reference(x, v, nu, reference_rng);
    EXPECT_NEAR(blocked, reference, 1e-12 * reference) << "d=" << s[1];
    // Both consumed the same draws.
    EXPECT_EQ(blocked_rng.next_u64(), reference_rng.next_u64());
  }
}

/// Preprocessed frame rows of a generator stream, the way the monitor
/// feeds them to the sketch.
Matrix frame_rows(const std::vector<image::ImageF>& frames) {
  return image::images_to_matrix(
      image::preprocess_batch(frames, image::PreprocessConfig{}));
}

struct Decisions {
  long rank_increases;
  std::size_t final_ell;
  long probe_count;
};

Decisions stream_decisions(const Matrix& rows, double epsilon) {
  RankAdaptiveConfig config;
  config.initial_ell = 8;
  config.nu = 10;
  config.rank_step = 2;  // small steps: many decisions shape the final ℓ
  config.epsilon = epsilon;
  config.seed = 2024;
  RankAdaptiveFd fd(config);
  for (std::size_t r0 = 0; r0 < rows.rows(); r0 += 64) {
    fd.append_batch(rows.slice_rows(r0, std::min(rows.rows(), r0 + 64)));
  }
  return {fd.stats().rank_increases, fd.ell(), fd.stats().probe_count};
}

// Pinned to the per-probe estimator's decisions on the same streams: the
// blocked form must not flip a single grow/shrink decision.
TEST(RankAdaptive, DecisionsPinnedOnBeamStream) {
  data::BeamProfileConfig beam;
  beam.height = 32;
  beam.width = 32;
  Rng rng(41);
  std::vector<image::ImageF> frames;
  for (auto& sample : data::generate_beam_profiles(beam, 640, rng)) {
    frames.push_back(std::move(sample.frame));
  }
  const Decisions got = stream_decisions(frame_rows(frames), 0.01);
  EXPECT_EQ(got.rank_increases, 5);
  EXPECT_EQ(got.final_ell, 18u);
  EXPECT_EQ(got.probe_count, 350);
}

TEST(RankAdaptive, DecisionsPinnedOnDiffractionStream) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  const data::DiffractionGenerator generator(diff);
  Rng rng(42);
  std::vector<image::ImageF> frames;
  for (auto& sample : generator.generate_batch(640, rng)) {
    frames.push_back(std::move(sample.frame));
  }
  const Decisions got = stream_decisions(frame_rows(frames), 0.02);
  EXPECT_EQ(got.rank_increases, 3);
  EXPECT_EQ(got.final_ell, 14u);
  EXPECT_EQ(got.probe_count, 430);
}

}  // namespace
}  // namespace arams::core
