// SketchErrorTracker: reservoir uniformity, error estimation accuracy,
// streaming behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "core/error_tracker.hpp"
#include "core/fd.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::core {
namespace {

using linalg::Matrix;

TEST(ErrorTracker, ValidatesConfig) {
  ErrorTrackerConfig config;
  config.reservoir_size = 0;
  EXPECT_THROW(SketchErrorTracker{config}, CheckError);
}

TEST(ErrorTracker, ErrorBeforeDataThrows) {
  SketchErrorTracker tracker{ErrorTrackerConfig{}};
  EXPECT_THROW((void)tracker.relative_error(Matrix(2, 4)), CheckError);
}

TEST(ErrorTracker, KeepsEverythingWhileUnderCapacity) {
  ErrorTrackerConfig config;
  config.reservoir_size = 100;
  SketchErrorTracker tracker(config);
  Matrix rows(30, 5);
  Rng rng(1);
  for (std::size_t i = 0; i < 30; ++i) rng.fill_normal(rows.row(i));
  tracker.observe_batch(rows);
  EXPECT_EQ(tracker.reservoir_count(), 30u);
  EXPECT_EQ(tracker.rows_seen(), 30);
}

TEST(ErrorTracker, ReservoirIsUniformOverTheStream) {
  // With Algorithm R every stream position survives with probability
  // reservoir/n; check the first and last rows' survival rates.
  constexpr int kReps = 500;
  constexpr std::size_t kN = 60;
  constexpr std::size_t kSize = 12;
  int first_kept = 0, last_kept = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ErrorTrackerConfig config;
    config.reservoir_size = kSize;
    config.seed = static_cast<std::uint64_t>(rep) * 31 + 1;
    SketchErrorTracker tracker(config);
    Matrix rows(kN, 1);
    for (std::size_t i = 0; i < kN; ++i) {
      rows(i, 0) = static_cast<double>(i);
    }
    tracker.observe_batch(rows);
    const Matrix kept = tracker.reservoir_rows();
    for (std::size_t i = 0; i < kept.rows(); ++i) {
      if (kept(i, 0) == 0.0) ++first_kept;
      if (kept(i, 0) == static_cast<double>(kN - 1)) ++last_kept;
    }
  }
  const double expected = static_cast<double>(kSize) / kN;  // 0.2
  EXPECT_NEAR(first_kept / static_cast<double>(kReps), expected, 0.06);
  EXPECT_NEAR(last_kept / static_cast<double>(kReps), expected, 0.06);
}

TEST(ErrorTracker, EstimateMatchesExactStreamError) {
  // Low-rank stream: tracker's estimate vs the exact relative residual of
  // the *whole* stream against the sketch basis.
  data::SyntheticConfig dc;
  dc.n = 2000;
  dc.d = 40;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 20;
  dc.spectrum.rate = 0.25;
  dc.noise = 5e-3;
  Rng rng(2);
  const Matrix a = data::make_low_rank(dc, rng);

  FrequentDirections fd(FdConfig{12, true});
  ErrorTrackerConfig config;
  config.reservoir_size = 300;
  SketchErrorTracker tracker(config);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    fd.append(a.row(i));
    tracker.observe(a.row(i));
  }
  const Matrix basis = fd.basis(12);
  const double estimated = tracker.relative_error(basis);
  const double exact = linalg::projection_residual_exact(a, basis) /
                       linalg::frobenius_norm_squared(a);
  EXPECT_NEAR(estimated, exact, 0.5 * exact + 1e-4);
}

TEST(ErrorTracker, OnePassForTheNormKeepsTheTwoPassBits) {
  // relative_error forms ‖R‖²_F once and hands it to the residual; the
  // value keeps the bits of the residual (which forms ‖R‖²_F itself)
  // divided by a second ‖R‖²_F pass.
  Rng rng(4);
  ErrorTrackerConfig config;
  config.reservoir_size = 64;
  SketchErrorTracker tracker(config);
  FrequentDirections fd(FdConfig{6, true});
  std::vector<double> row(96);
  for (int i = 0; i < 400; ++i) {
    rng.fill_normal(row);
    for (std::size_t j = 0; j < row.size(); j += 3) row[j] *= 4.0;
    tracker.observe(row);
    fd.append(row);
  }
  const Matrix basis = fd.basis(6);
  const Matrix reservoir = tracker.reservoir_rows();
  const double two_pass = linalg::projection_residual_exact(reservoir, basis) /
                          linalg::frobenius_norm_squared(reservoir);
  EXPECT_EQ(tracker.relative_error(basis), two_pass);
  EXPECT_GT(two_pass, 0.0);
}

TEST(ErrorTracker, KeptRowNormsKeepTheFrobeniusBitsThroughFillAndReplacement) {
  // ‖R‖²_F comes from kept per-row norms, refreshed only where a row was
  // written. Checked after every batch, from the first (partial fill)
  // through Algorithm R's replacements, against a fresh two-pass value;
  // rows of very different scales make any stale norm show in the bits.
  Rng rng(5);
  ErrorTrackerConfig config;
  config.reservoir_size = 32;
  SketchErrorTracker tracker(config);
  FrequentDirections fd(FdConfig{4, true});
  Matrix batch(12, 40);
  for (int b = 0; b < 40; ++b) {
    for (std::size_t i = 0; i < batch.rows(); ++i) {
      rng.fill_normal(batch.row(i));
      linalg::scale(batch.row(i), std::exp(3.0 * rng.normal()));
    }
    tracker.observe_batch(batch);
    fd.append_batch(batch);
    const Matrix basis = fd.basis(4);
    const Matrix reservoir = tracker.reservoir_rows();
    const double two_pass =
        linalg::projection_residual_exact(reservoir, basis) /
        linalg::frobenius_norm_squared(reservoir);
    ASSERT_EQ(tracker.relative_error(basis), two_pass) << "batch " << b;
    // A second call with nothing written reads only kept norms.
    ASSERT_EQ(tracker.relative_error(basis), two_pass) << "batch " << b;
  }
  EXPECT_EQ(tracker.reservoir_count(), 32u);
}

TEST(ErrorTracker, ZeroForDataInsideBasisSpan) {
  Rng rng(3);
  Matrix b(10, 2);
  for (std::size_t i = 0; i < 10; ++i) rng.fill_normal(b.row(i));
  linalg::orthonormalize_columns(b);
  const Matrix basis = b.transposed();
  SketchErrorTracker tracker{ErrorTrackerConfig{}};
  for (int i = 0; i < 50; ++i) {
    std::vector<double> row(10, 0.0);
    const double c0 = rng.normal(), c1 = rng.normal();
    for (std::size_t j = 0; j < 10; ++j) {
      row[j] = c0 * basis(0, j) + c1 * basis(1, j);
    }
    tracker.observe(row);
  }
  EXPECT_NEAR(tracker.relative_error(basis), 0.0, 1e-10);
}

TEST(ErrorTracker, DimensionChangeThrows) {
  SketchErrorTracker tracker{ErrorTrackerConfig{}};
  const std::vector<double> row3{1.0, 2.0, 3.0};
  const std::vector<double> row2{1.0, 2.0};
  tracker.observe(row3);
  EXPECT_THROW(tracker.observe(row2), CheckError);
}

}  // namespace
}  // namespace arams::core
