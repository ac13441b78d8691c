#include "core/error_tracker.hpp"

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "util/check.hpp"

namespace arams::core {

SketchErrorTracker::SketchErrorTracker(const ErrorTrackerConfig& config)
    : config_(config), rng_(config.seed) {
  ARAMS_CHECK(config.reservoir_size >= 1, "reservoir must hold >= 1 row");
}

void SketchErrorTracker::observe(std::span<const double> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
    reservoir_ = linalg::Matrix(0, dim_);
  }
  ARAMS_CHECK(row.size() == dim_, "row dimension changed mid-stream");
  ++rows_seen_;
  if (reservoir_.rows() < config_.reservoir_size) {
    reservoir_.append_zero_rows(1);
    reservoir_.set_row(reservoir_.rows() - 1, row);
    row_sq_norms_.push_back(0.0);
    stale_.push_back(1);
    return;
  }
  // Algorithm R: replace a random slot with probability size/seen.
  const auto slot = rng_.uniform_index(
      static_cast<std::uint64_t>(rows_seen_));
  if (slot < config_.reservoir_size) {
    reservoir_.set_row(slot, row);
    stale_[slot] = 1;
  }
}

void SketchErrorTracker::observe_batch(const linalg::Matrix& rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    observe(rows.row(r));
  }
}

std::size_t SketchErrorTracker::reservoir_count() const {
  return reservoir_.rows();
}

linalg::Matrix SketchErrorTracker::reservoir_rows() const {
  ARAMS_CHECK(reservoir_.rows() > 0, "no rows observed yet");
  return reservoir_;
}

double SketchErrorTracker::relative_error(linalg::MatrixView basis) {
  ARAMS_CHECK(reservoir_.rows() > 0, "no rows observed yet");
  ARAMS_CHECK(basis.cols() == dim_, "basis dimension mismatch");
  // ‖R‖²_F, shared with the residual: frobenius_norm_squared's row-order
  // sum over kept row norms, refreshing only the rows written since.
  double total = 0.0;
  for (std::size_t r = 0; r < reservoir_.rows(); ++r) {
    if (stale_[r] != 0) {
      row_sq_norms_[r] = linalg::norm2_squared(reservoir_.row(r));
      stale_[r] = 0;
    }
    total += row_sq_norms_[r];
  }
  if (total <= 0.0) return 0.0;
  return linalg::projection_residual_exact(reservoir_, basis, total) / total;
}

}  // namespace arams::core
