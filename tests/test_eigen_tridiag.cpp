// Tests for the tridiagonal-QR symmetric eigensolver, cross-checked
// against the Jacobi reference on adversarial spectra, plus FD-level
// invariance: the sketch a stream produces must not depend on which
// eigensolver ran the shrinks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/fd.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "image/image.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::linalg {
namespace {

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

Matrix random_orthogonal(std::size_t n, Rng& rng) {
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) rng.fill_normal(q.row(i));
  orthonormalize_columns(q);
  return q;
}

/// Q · diag(values) · Qᵀ for a prescribed spectrum.
Matrix with_spectrum(const Matrix& q, const std::vector<double>& values) {
  Matrix ql = q;
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < q.cols(); ++j) {
      ql(i, j) *= values[j];
    }
  }
  return matmul_nt(ql, q);
}

SymmetricEig run_tridiag(const Matrix& a, const EigenConfig& cfg = {}) {
  Workspace ws;
  SymmetricEig out;
  eigen_symmetric(MatrixView(a), ws, out, cfg);
  return out;
}

double spectral_scale(const SymmetricEig& eig) {
  double s = 1e-300;
  for (const double v : eig.values) s = std::max(s, std::abs(v));
  return s;
}

/// Eigen-pair residual max_j ‖A·vⱼ − λⱼ·vⱼ‖∞, the method-agnostic
/// correctness check (eigenvectors of close eigenvalues are not unique,
/// so columns cannot be compared directly across solvers).
double max_residual(const Matrix& a, const SymmetricEig& eig) {
  const Matrix av = matmul(a, eig.vectors);
  double worst = 0.0;
  for (std::size_t j = 0; j < eig.vectors.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      worst = std::max(
          worst, std::abs(av(i, j) - eig.values[j] * eig.vectors(i, j)));
    }
  }
  return worst;
}

void expect_matches_jacobi(const Matrix& a, double tol = 1e-10) {
  const SymmetricEig tri = run_tridiag(a);
  const SymmetricEig jac = jacobi_eigen_symmetric(a);
  ASSERT_EQ(tri.values.size(), jac.values.size());
  const double scale = spectral_scale(jac);
  for (std::size_t i = 0; i < tri.values.size(); ++i) {
    EXPECT_NEAR(tri.values[i], jac.values[i], tol * scale) << "i=" << i;
  }
  EXPECT_LT(orthonormality_defect(tri.vectors), 1e-9);
  EXPECT_LT(max_residual(a, tri), 1e-9 * std::max(1.0, scale));
}

TEST(EigenTridiag, OneByOne) {
  const Matrix a{{-4.5}};
  const SymmetricEig eig = run_tridiag(a);
  EXPECT_DOUBLE_EQ(eig.values[0], -4.5);
  ASSERT_EQ(eig.vectors.rows(), 1u);
  EXPECT_DOUBLE_EQ(eig.vectors(0, 0), 1.0);
}

TEST(EigenTridiag, Known2x2) {
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const SymmetricEig eig = run_tridiag(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  EXPECT_LT(max_residual(a, eig), 1e-12);
}

TEST(EigenTridiag, DiagonalAlreadyReduced) {
  const Matrix a{{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 7.0}};
  const SymmetricEig eig = run_tridiag(a);
  EXPECT_NEAR(eig.values[0], 7.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], -1.0, 1e-12);
  EXPECT_LT(max_residual(a, eig), 1e-12);
}

TEST(EigenTridiag, NonSquareThrows) {
  Workspace ws;
  SymmetricEig out;
  Matrix a(2, 3);
  EXPECT_THROW(eigen_symmetric(MatrixView(a), ws, out, {}), CheckError);
}

TEST(EigenTridiag, EmptyThrows) {
  Workspace ws;
  SymmetricEig out;
  Matrix a;
  EXPECT_THROW(eigen_symmetric(MatrixView(a), ws, out, {}), CheckError);
}

class TridiagSizes : public ::testing::TestWithParam<int> {};

TEST_P(TridiagSizes, MatchesJacobiOnRandomSymmetric) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(static_cast<std::uint64_t>(n) * 101);
  expect_matches_jacobi(random_symmetric(n, rng));
}

TEST_P(TridiagSizes, MatchesJacobiOnRandomSpd) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(static_cast<std::uint64_t>(n) * 103);
  Matrix b(n, n + 5);
  for (std::size_t i = 0; i < n; ++i) rng.fill_normal(b.row(i));
  expect_matches_jacobi(gram_rows(b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagSizes,
                         ::testing::Values(2, 3, 5, 16, 33, 60, 90));

TEST(EigenTridiag, RankDeficientGram) {
  // 40×40 Gram of a 15-row matrix: 25 exact zero eigenvalues.
  Rng rng(7);
  Matrix b(15, 40);
  for (std::size_t i = 0; i < 15; ++i) rng.fill_normal(b.row(i));
  const Matrix a = matmul_tn(b, b);  // BᵀB, 40×40, rank 15
  const SymmetricEig eig = run_tridiag(a);
  const double scale = spectral_scale(eig);
  for (std::size_t i = 15; i < 40; ++i) {
    EXPECT_LT(std::abs(eig.values[i]), 1e-10 * scale) << "i=" << i;
  }
  expect_matches_jacobi(a);
}

TEST(EigenTridiag, ClusteredAndRepeatedEigenvalues) {
  Rng rng(11);
  const std::size_t n = 24;
  const Matrix q = random_orthogonal(n, rng);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Three exact repeats, then a tight cluster, then a spread tail.
    if (i < 3) vals[i] = 5.0;
    else if (i < 8) vals[i] = 2.0 + 1e-13 * static_cast<double>(i);
    else vals[i] = 1.0 / static_cast<double>(i);
  }
  const Matrix a = with_spectrum(q, vals);
  const SymmetricEig eig = run_tridiag(a);
  std::sort(vals.rbegin(), vals.rend());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(eig.values[i], vals[i], 1e-10 * 5.0) << "i=" << i;
  }
  EXPECT_LT(orthonormality_defect(eig.vectors), 1e-9);
  EXPECT_LT(max_residual(a, eig), 1e-9 * 5.0);
}

TEST(EigenTridiag, GradedSpectrumConditionTenToTwelve) {
  Rng rng(13);
  const std::size_t n = 30;
  const Matrix q = random_orthogonal(n, rng);
  std::vector<double> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = std::pow(10.0, -12.0 * static_cast<double>(i) /
                                 static_cast<double>(n - 1));
  }
  const Matrix a = with_spectrum(q, vals);
  const SymmetricEig eig = run_tridiag(a);
  // Norm-wise accuracy: every eigenvalue within 1e-10 of the spectral
  // scale (componentwise accuracy at κ=1e12 is beyond any dense solver
  // working from the full matrix).
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(eig.values[i], vals[i], 1e-10) << "i=" << i;
  }
  EXPECT_GE(eig.values[n - 1], -1e-12);
  EXPECT_LT(max_residual(a, eig), 1e-10);
  expect_matches_jacobi(a);
}

TEST(EigenTridiag, ValuesOnlyMatchesFullSolve) {
  Rng rng(17);
  const Matrix a = random_symmetric(41, rng);
  const SymmetricEig full = run_tridiag(a);
  EigenConfig cfg;
  cfg.vectors = false;
  const SymmetricEig vals = run_tridiag(a, cfg);
  ASSERT_EQ(vals.values.size(), full.values.size());
  EXPECT_EQ(vals.vectors.rows(), 0u);
  // The d/e recurrence is identical with or without rotation
  // accumulation, so the eigenvalues agree to the last bit.
  for (std::size_t i = 0; i < full.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(vals.values[i], full.values[i]) << "i=" << i;
  }
}

TEST(EigenTridiag, MaxVectorsKeepsLeadingPrefix) {
  Rng rng(19);
  const Matrix a = random_symmetric(37, rng);
  const SymmetricEig full = run_tridiag(a);
  EigenConfig cfg;
  cfg.max_vectors = 9;
  const SymmetricEig capped = run_tridiag(a, cfg);
  ASSERT_EQ(capped.vectors.cols(), 9u);
  ASSERT_EQ(capped.values.size(), full.values.size());  // values never capped
  for (std::size_t j = 0; j < 9; ++j) {
    for (std::size_t i = 0; i < 37; ++i) {
      // Same deterministic computation → identical columns, not just
      // sign-equivalent ones.
      EXPECT_DOUBLE_EQ(capped.vectors(i, j), full.vectors(i, j));
    }
  }
}

TEST(EigenTridiag, DispatchHonorsExplicitMethodAndCapsJacobi) {
  // The capped production solve against the full Jacobi reference: the
  // same spectrum, and each of the four kept columns spans the reference's
  // eigendirection.
  Rng rng(23);
  const Matrix a = random_symmetric(20, rng);
  EigenConfig cfg;
  cfg.max_vectors = 4;
  Workspace ws;
  SymmetricEig tri;
  eigen_symmetric(MatrixView(a), ws, tri, cfg);
  ASSERT_EQ(tri.vectors.cols(), 4u);
  SymmetricEig jac;
  jacobi_eigen_symmetric(MatrixView(a), ws, jac);
  ASSERT_EQ(jac.vectors.cols(), 20u);
  const double scale = spectral_scale(jac);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(tri.values[i], jac.values[i], 1e-10 * scale);
  }
  // Column j of either result spans the same eigendirection: the projector
  // v·vᵀ is sign-free, so compare |⟨v_jac, v_tri⟩| ≈ 1.
  for (std::size_t j = 0; j < 4; ++j) {
    double ip = 0.0;
    for (std::size_t i = 0; i < 20; ++i) {
      ip += jac.vectors(i, j) * tri.vectors(i, j);
    }
    EXPECT_NEAR(std::abs(ip), 1.0, 1e-8) << "j=" << j;
  }
}

TEST(EigenTridiag, RepeatedCallsReuseWorkspace) {
  Rng rng(29);
  Workspace ws;
  SymmetricEig out;
  const Matrix a = random_symmetric(32, rng);
  eigen_symmetric(MatrixView(a), ws, out, {});
  const std::size_t bytes_after_first = ws.capacity_bytes();
  for (int rep = 0; rep < 3; ++rep) {
    eigen_symmetric(MatrixView(a), ws, out, {});
  }
  EXPECT_EQ(ws.capacity_bytes(), bytes_after_first);
  EXPECT_LT(max_residual(a, out), 1e-9 * spectral_scale(out));
}

/// Frequent Directions with the Jacobi reference in its shrink: the same
/// 2ℓ buffer, Gram-trick rows σᵢ·vᵢᵀ = (UᵀB)ᵢ, δ = σ_ℓ² rescale and
/// 1e-7·σ₀ noise floor as core::FrequentDirections, so the two sketches
/// differ only in which solver diagonalized B·Bᵀ.
class JacobiFd {
 public:
  JacobiFd(std::size_t ell, std::size_t dim)
      : ell_(ell), buffer_(2 * ell, dim) {}

  void append_batch(const Matrix& rows) {
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      if (used_ == buffer_.rows()) shrink();
      buffer_.set_row(used_++, rows.row(r));
    }
  }

  /// The occupied rows after a final shrink to at most ℓ (FD's compress()).
  Matrix sketch() {
    if (used_ > ell_) shrink();
    return buffer_.slice_rows(0, used_);
  }

 private:
  void shrink() {
    const Matrix b = buffer_.slice_rows(0, used_);
    const SymmetricEig eig = jacobi_eigen_symmetric(gram_rows(b));
    const Matrix w = matmul_tn(eig.vectors, b);
    const std::size_t m = eig.values.size();
    std::vector<double> sigma(m);
    for (std::size_t i = 0; i < m; ++i) {
      sigma[i] = std::sqrt(std::max(eig.values[i], 0.0));
    }
    const double delta = m >= ell_ ? sigma[ell_ - 1] * sigma[ell_ - 1] : 0.0;
    const double floor = m > 0 && sigma[0] > 0.0 ? 1e-7 * sigma[0] : 0.0;
    std::size_t out = 0;
    for (; out < m; ++out) {
      const double s2 = sigma[out] * sigma[out];
      if (s2 <= delta || sigma[out] <= floor) break;
      buffer_.set_row(out, w.row(out));
      scale(buffer_.row(out), std::sqrt(s2 - delta) / sigma[out]);
    }
    for (std::size_t r = out; r < used_; ++r) buffer_.zero_row(r);
    used_ = out;
  }

  std::size_t ell_;
  Matrix buffer_;
  std::size_t used_ = 0;
};

/// Relative covariance errors of core::FrequentDirections and JacobiFd at
/// rank `ell` over `rows`, each measured with the same power-iteration
/// probe stream.
std::pair<double, double> fd_errors(const Matrix& rows, std::size_t ell,
                                    std::uint64_t probe_seed) {
  core::FrequentDirections fd(core::FdConfig{ell, true});
  fd.append_batch(rows);
  fd.compress();
  JacobiFd reference(ell, rows.cols());
  reference.append_batch(rows);
  Rng probe_a(probe_seed);
  Rng probe_b(probe_seed);
  return {covariance_error_relative(rows, fd.sketch(), probe_a, 60),
          covariance_error_relative(rows, reference.sketch(), probe_b, 60)};
}

/// FD-level invariance: the same stream sketched with either eigensolver
/// must report the same covariance error to well below the FD bound —
/// the solver is an implementation detail, not a model change.
TEST(EigenTridiag, FdSketchErrorIsMethodIndependent) {
  Rng rng(31);
  Matrix rows(200, 48);
  for (std::size_t i = 0; i < rows.rows(); ++i) rng.fill_normal(rows.row(i));
  const auto [tridiag, jacobi] = fd_errors(rows, 16, 77);
  EXPECT_NEAR(jacobi, tridiag, 1e-10);
}

/// Stream-level parity on detector frames: 120 beam and 120 diffraction
/// frames of 24×24 (3 classes, generator seed 7) at ℓ ∈ {8, 16}. The
/// solvers are different algorithms over the same math, so the sketch
/// error may differ only by eigensolver roundoff carried through the
/// stream; a drift past 1e-8 means an eigensolver bug that the unit-level
/// cross-checks above missed.
TEST(EigenTridiag, FdFrameStreamsMatchJacobiReference) {
  constexpr std::size_t kFrames = 120;
  constexpr std::size_t kSize = 24;
  std::vector<image::ImageF> beam;
  {
    data::BeamProfileConfig config;
    config.height = kSize;
    config.width = kSize;
    Rng rng(7);
    for (std::size_t i = 0; i < kFrames; ++i) {
      beam.push_back(data::generate_beam_profile(config, rng).frame);
    }
  }
  std::vector<image::ImageF> diffraction;
  {
    data::DiffractionConfig config;
    config.height = kSize;
    config.width = kSize;
    config.num_classes = 3;
    const data::DiffractionGenerator generator(config);
    Rng rng(7);
    for (std::size_t i = 0; i < kFrames; ++i) {
      diffraction.push_back(generator.generate(rng).frame);
    }
  }
  const std::pair<const char*, Matrix> streams[] = {
      {"beam", image::images_to_matrix(beam)},
      {"diffraction", image::images_to_matrix(diffraction)},
  };
  for (const auto& [kind, rows] : streams) {
    for (const std::size_t ell : {8, 16}) {
      const auto [tridiag, jacobi] = fd_errors(rows, ell, 1);
      EXPECT_NEAR(jacobi, tridiag, 1e-8) << kind << " ell=" << ell;
      EXPECT_GT(tridiag, 0.0) << kind << " ell=" << ell;
    }
  }
}

}  // namespace
}  // namespace arams::linalg
