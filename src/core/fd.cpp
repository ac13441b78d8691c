#include "core/fd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/svd.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

FrequentDirections::FrequentDirections(const FdConfig& config)
    : ell_(config.sketch_rows), fast_(config.fast) {
  ARAMS_CHECK(ell_ >= 2, "sketch needs at least 2 rows");
}

void FrequentDirections::ensure_dim(std::size_t d) {
  if (dim_ == 0) {
    ARAMS_CHECK(d > 0, "zero-dimensional rows");
    dim_ = d;
    buffer_ = Matrix(buffer_capacity(), dim_);
    return;
  }
  ARAMS_CHECK(d == dim_, "row dimension changed mid-stream");
}

void FrequentDirections::append(std::span<const double> row) {
  ensure_dim(row.size());
  if (buffer_full()) {
    shrink();
  }
  buffer_.set_row(next_zero_row_, row);
  ++next_zero_row_;
  ++stats_.rows_processed;
}

void FrequentDirections::append(std::span<const float> row) {
  ensure_dim(row.size());
  if (buffer_full()) {
    shrink();
  }
  // Widen straight into the destination buffer row — the only fp32→fp64
  // conversion this row ever sees.
  auto dst = buffer_.row(next_zero_row_);
  for (std::size_t j = 0; j < row.size(); ++j) {
    dst[j] = static_cast<double>(row[j]);
  }
  ++next_zero_row_;
  ++stats_.rows_processed;
}

void FrequentDirections::append_batch(linalg::MatrixView rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    append(rows.row(r));
  }
}

void FrequentDirections::append_batch(linalg::MatrixViewF rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    append(rows.row(r));
  }
}

void FrequentDirections::shrink() {
  ARAMS_DCHECK(next_zero_row_ > 0, "shrink of empty buffer");
  Stopwatch timer;
  // Zero-copy view of the occupied buffer prefix; the SVD reads it fully
  // before any buffer row is overwritten below.
  const linalg::MatrixView occupied =
      linalg::MatrixView::rows_of(buffer_, 0, next_zero_row_);
  // At most ℓ−1 directions survive the rescale (σ_ℓ² = δ kills row ℓ−1 and
  // everything after it), so cap the materialized right-vector rows at ℓ.
  linalg::sigma_vt_svd(occupied, ws_, svd_, ell_);

  // δ = σ_ℓ² (1-based) — the paper's Algorithm 2 line 16. When fewer than ℓ
  // directions exist there is nothing to shrink away (δ = 0) and the
  // rotation only re-orthogonalizes the buffer.
  const std::size_t m = svd_.sigma.size();
  const double delta =
      (m >= ell_) ? svd_.sigma[ell_ - 1] * svd_.sigma[ell_ - 1] : 0.0;

  last_spectrum_ = svd_.sigma;

  // Row i of svd_.w equals σᵢ·vᵢᵀ; rescale to √(σᵢ²−δ)·vᵢᵀ without ever
  // forming Vᵀ. Rows whose σᵢ² ≤ δ vanish, as do directions below the
  // Gram-trick noise floor (√ε·σ₀) — keeping those would inject garbage
  // directions into the sketch and its basis.
  const double sigma_floor =
      (m > 0 && svd_.sigma[0] > 0.0) ? 1e-7 * svd_.sigma[0] : 0.0;
  const std::size_t prev_occupied = next_zero_row_;
  std::size_t out = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double s2 = svd_.sigma[i] * svd_.sigma[i];
    if (s2 <= delta || svd_.sigma[i] <= sigma_floor) break;  // descending
    const double scale = std::sqrt(s2 - delta) / svd_.sigma[i];
    const auto wi = svd_.w.row(i);
    auto dst = buffer_.row(out);
    for (std::size_t j = 0; j < dim_; ++j) {
      dst[j] = scale * wi[j];
    }
    ++out;
  }
  // Zero only [out, prev_occupied): the leading rows were just rewritten
  // and everything at or past prev_occupied is already zero by the buffer
  // invariant (rows >= next_zero_row_ are always zero).
  for (std::size_t r = out; r < prev_occupied; ++r) {
    buffer_.zero_row(r);
  }
  // The sketch is kept dense in its leading rows — no interior zero rows,
  // which Section IV-A3 warns would corrupt later merges.
  next_zero_row_ = out;
  ++stats_.svd_count;
  const double seconds = timer.seconds();
  stats_.shrink_seconds += seconds;
  // Resolved once: references into the global registry are stable, so the
  // per-shrink cost is two relaxed atomic ops next to an SVD.
  static obs::Counter& shrink_count =
      obs::metrics().counter("fd.shrink_count");
  static obs::Histogram& shrink_latency =
      obs::metrics().histogram("fd.shrink_seconds");
  shrink_count.add(1);
  shrink_latency.observe(seconds);
}

void FrequentDirections::compress() {
  if (next_zero_row_ > ell_) {
    shrink();
  }
}

Matrix FrequentDirections::sketch() const {
  if (dim_ == 0) return Matrix();
  return buffer_.slice_rows(0, next_zero_row_);
}

Matrix FrequentDirections::basis(std::size_t k) {
  ARAMS_CHECK(dim_ > 0, "basis of an empty sketch");
  compress();
  if (next_zero_row_ == 0) return Matrix(0, dim_);
  // Post-shrink sketch rows are already orthogonal scaled right vectors,
  // but mid-stream sketches may not be; re-orthogonalize via SVD (on a
  // view of the occupied rows — no buffer copy).
  const linalg::MatrixView b =
      linalg::MatrixView::rows_of(buffer_, 0, next_zero_row_);
  linalg::sigma_vt_svd(b, ws_, svd_, k);  // only the top-k rows are read
  k = std::min({k, b.rows(), svd_.sigma.size()});
  const double smax = svd_.sigma.empty() ? 0.0 : svd_.sigma[0];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (svd_.sigma[i] > 1e-7 * smax && svd_.sigma[i] > 0.0) ++kept;
  }
  Matrix out(kept, dim_);
  for (std::size_t i = 0; i < kept; ++i) {
    const auto wi = svd_.w.row(i);
    auto dst = out.row(i);
    const double inv = 1.0 / svd_.sigma[i];
    for (std::size_t j = 0; j < dim_; ++j) {
      dst[j] = wi[j] * inv;
    }
  }
  return out;
}

void FrequentDirections::grow_ell(std::size_t extra) {
  if (extra == 0) return;
  ell_ += extra;
  if (dim_ != 0) {
    buffer_.append_zero_rows(buffer_capacity() - buffer_.rows());
  }
}

}  // namespace arams::core
