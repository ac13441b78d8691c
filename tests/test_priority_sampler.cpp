// Priority sampling: unit tests plus the unbiasedness property —
// E[B̃ᵀB̃] = AᵀA over many sampling repetitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/priority_sampler.hpp"
#include "linalg/blas.hpp"
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

TEST(PrioritySampler, CapacityZeroThrows) {
  PrioritySamplerConfig config;
  config.capacity = 0;
  EXPECT_THROW(PrioritySampler{config}, CheckError);
}

TEST(PrioritySampler, UnderflowKeepsEverythingExactly) {
  PrioritySamplerConfig config;
  config.capacity = 10;
  PrioritySampler sampler(config);
  Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  sampler.push_batch(a);
  const Matrix out = sampler.take();
  EXPECT_EQ(Matrix::max_abs_diff(out, a), 0.0);
  EXPECT_EQ(sampler.last_threshold(), 0.0);
}

TEST(PrioritySampler, OverflowKeepsExactlyCapacity) {
  PrioritySamplerConfig config;
  config.capacity = 5;
  PrioritySampler sampler(config);
  Rng rng(2);
  sampler.push_batch(random_matrix(50, 3, rng));
  const Matrix out = sampler.take();
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_GT(sampler.last_threshold(), 0.0);
}

TEST(PrioritySampler, TakeBeforePushThrows) {
  PrioritySamplerConfig config;
  PrioritySampler sampler(config);
  EXPECT_THROW(sampler.take(), CheckError);
}

TEST(PrioritySampler, ZeroRowsAreNeverSampled) {
  PrioritySamplerConfig config;
  config.capacity = 3;
  PrioritySampler sampler(config);
  Matrix a(10, 2);
  a(4, 0) = 1.0;  // the only non-zero row
  sampler.push_batch(a);
  const Matrix out = sampler.take();
  ASSERT_EQ(out.rows(), 1u);
  EXPECT_GT(linalg::norm2(out.row(0)), 0.0);
}

TEST(PrioritySampler, OutputPreservesStreamOrder) {
  PrioritySamplerConfig config;
  config.capacity = 4;
  config.rescale = false;
  PrioritySampler sampler(config);
  // Increasing-norm rows: the four largest are rows 6..9, in order.
  Matrix a(10, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    a(i, 0) = static_cast<double>(i + 1) * 100.0;
  }
  sampler.push_batch(a);
  const Matrix out = sampler.take();
  ASSERT_EQ(out.rows(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(out(i, 0), out(i - 1, 0));
  }
}

TEST(PrioritySampler, HeavyRowsAlmostAlwaysKept) {
  // One row dominating the mass must essentially always survive.
  int kept = 0;
  constexpr int kReps = 100;
  for (int rep = 0; rep < kReps; ++rep) {
    PrioritySamplerConfig config;
    config.capacity = 3;
    config.seed = static_cast<std::uint64_t>(rep);
    PrioritySampler sampler(config);
    Matrix a(20, 2);
    Rng rng(static_cast<std::uint64_t>(rep) + 1000);
    for (std::size_t i = 0; i < 20; ++i) {
      a(i, 0) = 0.01 * rng.normal();
    }
    a(7, 0) = 50.0;  // the heavy row
    sampler.push_batch(a);
    const Matrix out = sampler.take();
    for (std::size_t i = 0; i < out.rows(); ++i) {
      if (std::abs(out(i, 0)) >= 49.0) {
        ++kept;
        break;
      }
    }
  }
  EXPECT_GE(kept, 99);
}

TEST(PrioritySampler, RescaledCovarianceIsUnbiased) {
  // Average B̃ᵀB̃ over many seeds and compare to AᵀA entrywise.
  Rng data_rng(3);
  const Matrix a = random_matrix(40, 4, data_rng);
  const Matrix target = linalg::gram_cols(a);

  Matrix accum(4, 4);
  constexpr int kReps = 600;
  for (int rep = 0; rep < kReps; ++rep) {
    PrioritySamplerConfig config;
    config.capacity = 20;
    config.seed = static_cast<std::uint64_t>(rep) * 7 + 1;
    PrioritySampler sampler(config);
    sampler.push_batch(a);
    const Matrix s = sampler.take();
    const Matrix g = linalg::gram_cols(s);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        accum(i, j) += g(i, j) / kReps;
      }
    }
  }
  const double scale = linalg::frobenius_norm(target);
  EXPECT_LT(Matrix::max_abs_diff(accum, target), 0.08 * scale);
}

TEST(PrioritySampler, RowNormWeightModeRuns) {
  PrioritySamplerConfig config;
  config.capacity = 5;
  config.weight = SamplingWeight::kRowNorm;
  PrioritySampler sampler(config);
  Rng rng(4);
  sampler.push_batch(random_matrix(30, 3, rng));
  EXPECT_EQ(sampler.take().rows(), 5u);
}

TEST(PrioritySampler, ReusableAfterTake) {
  PrioritySamplerConfig config;
  config.capacity = 4;
  PrioritySampler sampler(config);
  Rng rng(5);
  sampler.push_batch(random_matrix(10, 2, rng));
  EXPECT_EQ(sampler.take().rows(), 4u);
  sampler.push_batch(random_matrix(3, 6, rng));  // new dimension is fine
  EXPECT_EQ(sampler.take().rows(), 3u);
}

class SampleFraction : public ::testing::TestWithParam<double> {};

TEST_P(SampleFraction, KeepsRequestedFraction) {
  const double beta = GetParam();
  Rng rng(6);
  const Matrix a = random_matrix(100, 5, rng);
  PrioritySampleScratch scratch;
  const Matrix& out =
      priority_sample(a, beta, PrioritySamplerConfig{}, scratch);
  EXPECT_EQ(out.rows(), static_cast<std::size_t>(std::ceil(100 * beta)));
}

INSTANTIATE_TEST_SUITE_P(Fractions, SampleFraction,
                         ::testing::Values(0.1, 0.25, 0.5, 0.8, 0.99));

TEST(PrioritySample, FractionOneReturnsInputUnchanged) {
  Rng rng(7);
  const Matrix a = random_matrix(10, 3, rng);
  PrioritySampleScratch scratch;
  const Matrix& out =
      priority_sample(a, 1.0, PrioritySamplerConfig{}, scratch);
  EXPECT_EQ(Matrix::max_abs_diff(out, a), 0.0);
}

TEST(PrioritySample, InvalidFractionThrows) {
  const Matrix a(5, 2);
  PrioritySampleScratch scratch;
  EXPECT_THROW(priority_sample(a, 0.0, PrioritySamplerConfig{}, scratch),
               CheckError);
  EXPECT_THROW(priority_sample(a, 1.5, PrioritySamplerConfig{}, scratch),
               CheckError);
}

// ------------------------------------ one-shot vs streaming parity
//
// priority_sample keeps an index heap and gathers the survivors once; it
// must reproduce a streaming PrioritySampler of capacity ⌈βn⌉ fed the same
// rows bitwise — same draws, same keep/evict decisions, same τ, same
// rescaled survivors in stream order.

PrioritySamplerConfig streaming_config(std::size_t rows, double fraction,
                                       PrioritySamplerConfig config) {
  config.capacity = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(rows))),
      1);
  return config;
}

template <typename Rows>
Matrix streaming_sample(const Rows& a, double fraction,
                        const PrioritySamplerConfig& config) {
  PrioritySampler sampler(streaming_config(a.rows(), fraction, config));
  sampler.push_batch(a);
  return sampler.take();
}

struct ParityCase {
  const char* name;
  std::size_t rows;
  std::size_t zero_rows;  ///< leading rows of every third zeroed
  double fraction;
  SamplingWeight weight;
  bool rescale;
};

Matrix parity_input(const ParityCase& c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a = random_matrix(c.rows, 9, rng);
  for (std::size_t z = 0; z < c.zero_rows; ++z) a.zero_row(3 * z);
  return a;
}

const ParityCase kParityCases[] = {
    {"overflow", 120, 0, 0.3, SamplingWeight::kRowNormSquared, true},
    {"zero_weight_rows", 90, 12, 0.5, SamplingWeight::kRowNormSquared, true},
    // 7 non-zero rows against a capacity of 8: the heap never overflows.
    {"fewer_rows_than_capacity", 10, 3, 0.8, SamplingWeight::kRowNorm, true},
    {"row_norm_no_rescale", 64, 3, 0.8, SamplingWeight::kRowNorm, false},
};

TEST(PrioritySample, MatchesStreamingSamplerBitwise) {
  for (const ParityCase& c : kParityCases) {
    PrioritySamplerConfig config;
    config.weight = c.weight;
    config.rescale = c.rescale;
    config.seed = 4242;
    const Matrix a = parity_input(c, 11);
    const Matrix want = streaming_sample(a, c.fraction, config);
    PrioritySampleScratch scratch;
    const Matrix& got = priority_sample(a, c.fraction, config, scratch);
    ASSERT_EQ(got.rows(), want.rows()) << c.name;
    ASSERT_EQ(got.cols(), want.cols()) << c.name;
    EXPECT_EQ(Matrix::max_abs_diff(got, want), 0.0) << c.name;
  }
}

TEST(PrioritySample, F32MatchesStreamingSamplerBitwise) {
  for (const ParityCase& c : kParityCases) {
    PrioritySamplerConfig config;
    config.weight = c.weight;
    config.rescale = c.rescale;
    config.seed = 777;
    const linalg::MatrixF a = linalg::MatrixF::from_matrix(parity_input(c, 12));
    const Matrix want =
        streaming_sample(linalg::MatrixViewF(a), c.fraction, config);
    PrioritySampleScratch scratch;
    const Matrix& got =
        priority_sample(linalg::MatrixViewF(a), c.fraction, config, scratch);
    ASSERT_EQ(got.rows(), want.rows()) << c.name;
    EXPECT_EQ(Matrix::max_abs_diff(got, want), 0.0) << c.name;
  }
}

TEST(PrioritySample, ScratchIsReusedAcrossCalls) {
  Rng rng(13);
  const Matrix big = random_matrix(200, 6, rng);
  const Matrix small = random_matrix(20, 6, rng);
  PrioritySamplerConfig config;
  config.seed = 5;
  PrioritySampleScratch scratch;
  EXPECT_EQ(priority_sample(big, 0.5, config, scratch).rows(), 100u);
  // A smaller sample into the same scratch equals a fresh one bitwise.
  const Matrix& reused = priority_sample(small, 0.5, config, scratch);
  PrioritySampleScratch fresh_scratch;
  const Matrix& fresh = priority_sample(small, 0.5, config, fresh_scratch);
  EXPECT_EQ(&reused, &scratch.rows);
  ASSERT_EQ(reused.rows(), fresh.rows());
  EXPECT_EQ(Matrix::max_abs_diff(reused, fresh), 0.0);
}

TEST(PrioritySample, EmptyInputThrowsLikeTheStreamingSampler) {
  PrioritySampleScratch scratch;
  EXPECT_THROW(
      priority_sample(Matrix(0, 4), 0.5, PrioritySamplerConfig{}, scratch),
      CheckError);
}

}  // namespace
}  // namespace arams::core
