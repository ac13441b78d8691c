#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

// ---------------------------------------------------------------- Gaussian

GaussianProjectionSketch::GaussianProjectionSketch(std::size_t ell,
                                                   std::uint64_t seed)
    : ell_(ell), rng_(seed) {
  ARAMS_CHECK(ell >= 1, "sketch needs at least one row");
}

void GaussianProjectionSketch::ensure_dim(std::size_t d) {
  if (sketch_.empty()) {
    ARAMS_CHECK(d > 0, "zero-dimensional rows");
    sketch_ = Matrix(ell_, d);
  }
  ARAMS_CHECK(d == sketch_.cols(), "row dimension changed");
}

void GaussianProjectionSketch::push_batch(linalg::MatrixView batch) {
  if (batch.rows() == 0) return;
  ensure_dim(batch.cols());
  // One b×ℓ coefficient block, same draw order as the row loop (ℓ normals
  // per input row), then a single packed GEMM: B += 1/√ℓ · Cᵀ·A.
  coeff_block_.reshape(batch.rows(), ell_);
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    rng_.fill_normal(coeff_block_.row(r));
  }
  linalg::matmul_tn(coeff_block_, batch, update_);
  const double scale = 1.0 / std::sqrt(static_cast<double>(ell_));
  for (std::size_t i = 0; i < ell_; ++i) {
    linalg::axpy(scale, update_.row(i), sketch_.row(i));
  }
  stats_.rows_processed += static_cast<long>(batch.rows());
}

// ------------------------------------------------------------- CountSketch

CountSketch::CountSketch(std::size_t ell, std::uint64_t seed)
    : ell_(ell), rng_(seed) {
  ARAMS_CHECK(ell >= 1, "sketch needs at least one row");
}

void CountSketch::ensure_dim(std::size_t d) {
  if (sketch_.empty()) {
    ARAMS_CHECK(d > 0, "zero-dimensional rows");
    sketch_ = Matrix(ell_, d);
  }
  ARAMS_CHECK(d == sketch_.cols(), "row dimension changed");
}

void CountSketch::push_batch(linalg::MatrixView batch) {
  if (batch.rows() == 0) return;
  ensure_dim(batch.cols());
  // Single scatter pass, one hash per row in row order, so one-row batches
  // and one batch of the same rows are bitwise-identical.
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    const std::uint64_t h = rng_.next_u64();
    const std::size_t bucket = h % ell_;
    const double sign = (h >> 63) ? 1.0 : -1.0;
    linalg::axpy(sign, batch.row(r), sketch_.row(bucket));
  }
  stats_.rows_processed += static_cast<long>(batch.rows());
}

// ----------------------------------------------------------- NormSampling

NormSamplingSketch::NormSamplingSketch(std::size_t ell, std::uint64_t seed)
    : ell_(ell), rng_(seed), slots_(ell) {
  ARAMS_CHECK(ell >= 1, "sketch needs at least one row");
}

void NormSamplingSketch::push_batch(linalg::MatrixView batch) {
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    sample_row(batch.row(r));
  }
}

void NormSamplingSketch::sample_row(std::span<const double> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
  }
  ARAMS_CHECK(row.size() == dim_, "row dimension changed");
  ++stats_.rows_processed;
  const double w = linalg::norm2_squared(row);
  if (w <= 0.0) return;
  total_weight_ += w;
  // Each slot runs independent A-Res weighted reservoir sampling: keep the
  // row maximizing u^(1/w); the winner is distributed ∝ w.
  for (auto& slot : slots_) {
    double u = 0.0;
    do {
      u = rng_.uniform();
    } while (u <= 0.0);
    const double key = std::pow(u, 1.0 / w);
    if (key > slot.key) {
      slot.key = key;
      slot.weight = w;
      slot.row.assign(row.begin(), row.end());
    }
  }
}

Matrix NormSamplingSketch::sketch() {
  if (dim_ == 0) return Matrix();  // empty-state contract: never throws
  std::size_t filled = 0;
  for (const auto& slot : slots_) {
    if (!slot.row.empty()) ++filled;
  }
  Matrix out(filled, dim_);
  std::size_t r = 0;
  for (const auto& slot : slots_) {
    if (slot.row.empty()) continue;
    auto dst = out.row(r++);
    std::copy(slot.row.begin(), slot.row.end(), dst.begin());
    // pᵢ = wᵢ/W per draw; scaling by 1/√(ℓ·pᵢ) makes E[BᵀB] = AᵀA.
    const double p = slot.weight / total_weight_;
    linalg::scale(dst, 1.0 / std::sqrt(static_cast<double>(ell_) * p));
  }
  return out;
}

// ------------------------------------------------------------------- iSVD

TruncatedSvdSketch::TruncatedSvdSketch(std::size_t ell) : ell_(ell) {
  ARAMS_CHECK(ell >= 1, "sketch needs at least one row");
}

void TruncatedSvdSketch::push_batch(linalg::MatrixView batch) {
  for (std::size_t r = 0; r < batch.rows(); ++r) {
    add_row(batch.row(r));
  }
}

void TruncatedSvdSketch::add_row(std::span<const double> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
    buffer_ = Matrix(2 * ell_, dim_);
  }
  ARAMS_CHECK(row.size() == dim_, "row dimension changed");
  if (next_row_ == buffer_.rows()) {
    truncate();
  }
  buffer_.set_row(next_row_, row);
  ++next_row_;
  ++stats_.rows_processed;
}

void TruncatedSvdSketch::truncate() {
  Stopwatch timer;
  const linalg::MatrixView occupied =
      linalg::MatrixView::rows_of(buffer_, 0, next_row_);
  linalg::sigma_vt_svd(occupied, ws_, svd_, ell_);
  const std::size_t prev_occupied = next_row_;
  const std::size_t keep = std::min(ell_, svd_.sigma.size());
  std::size_t out = 0;
  for (std::size_t i = 0; i < keep; ++i) {
    if (svd_.sigma[i] <= 0.0) break;
    std::copy(svd_.w.row(i).begin(), svd_.w.row(i).end(),
              buffer_.row(out).begin());
    ++out;
  }
  // Rows >= prev_occupied are already zero; only the tail of the occupied
  // range needs clearing.
  for (std::size_t r = out; r < prev_occupied; ++r) {
    buffer_.zero_row(r);
  }
  next_row_ = out;
  ++stats_.svd_count;
  stats_.shrink_seconds += timer.seconds();
}

Matrix TruncatedSvdSketch::sketch() {
  if (dim_ == 0) return Matrix();
  if (next_row_ > ell_) {
    truncate();
  }
  return buffer_.slice_rows(0, next_row_);
}

}  // namespace arams::core
