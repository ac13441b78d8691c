#include "core/rank_adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

RankAdaptiveFd::RankAdaptiveFd(const RankAdaptiveConfig& config)
    : FrequentDirections(FdConfig{config.initial_ell, /*fast=*/true}),
      config_(config),
      rng_(config.seed) {
  ARAMS_CHECK(config.nu > 0, "need at least one probe");
  ARAMS_CHECK(config.epsilon >= 0.0, "negative error threshold");
  if (config_.rank_step == 0) {
    config_.rank_step = static_cast<std::size_t>(config_.nu);
  }
}

bool RankAdaptiveFd::can_rank_adapt() const {
  if (config_.max_ell != 0 && ell_ >= config_.max_ell) return false;
  if (rows_remaining_ <= 0) return true;  // open-ended stream
  // Algorithm 2 line 8: enough rows must remain to refill the grown buffer,
  // otherwise the final sketch would carry interior zero rows into merges.
  return rows_remaining_ >
         static_cast<long>(ell_ + static_cast<std::size_t>(config_.nu));
}

void RankAdaptiveFd::append(std::span<const double> row) {
  Stopwatch timer;
  if (dim_ == 0) {
    // First row fixes d; size the recent-row ring to ℓ.
    recent_ = Matrix(ell_, row.size());
  }

  if (buffer_full()) {
    const bool adapt_ok = can_rank_adapt();
    if (increase_ell_ && adapt_ok) {
      std::size_t step = config_.rank_step;
      if (config_.max_ell != 0) {
        step = std::min(step, config_.max_ell - ell_);
      }
      grow_ell(step);
      increase_ell_ = false;
      ++stats_.rank_increases;
      static obs::Counter& rank_increases =
          obs::metrics().counter("fd.rank_increases");
      rank_increases.add(1);
      // The ring tracks ℓ so the estimate always covers one buffer period.
      recent_.append_zero_rows(ell_ - recent_.rows());
    } else {
      shrink();
      if (adapt_ok) {
        update_adaptation_decision();
      }
    }
  }

  FrequentDirections::append(row);
  if (rows_remaining_ > 0) {
    --rows_remaining_;
  }

  // Record the row in the ring. Slots fill in index order and a rank
  // growth appends empty slots at the end, so the filled slots are always
  // the prefix [0, recent_filled_).
  recent_.set_row(recent_next_, row);
  recent_filled_ = std::max(recent_filled_, recent_next_ + 1);
  recent_next_ = (recent_next_ + 1) % recent_.rows();
  stats_.total_seconds += timer.seconds();
}

void RankAdaptiveFd::append_batch(const Matrix& rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    append(rows.row(r));
  }
}

Matrix RankAdaptiveFd::process(const Matrix& x) {
  set_rows_remaining(static_cast<long>(x.rows()));
  append_batch(x);
  compress();
  return sketch();
}

linalg::MatrixView RankAdaptiveFd::post_shrink_basis() {
  const std::size_t rows = next_zero_row_;
  Matrix& basis = ws_.mat(linalg::wslot::kRankBasis, rows, dim_);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto src = buffer_.row(i);
    const double nrm = linalg::norm2(src);
    ARAMS_DCHECK(nrm > 0.0, "zero row survived shrink");
    auto dst = basis.row(i);
    for (std::size_t j = 0; j < dim_; ++j) {
      dst[j] = src[j] / nrm;
    }
  }
  return basis;
}

void RankAdaptiveFd::update_adaptation_decision() {
  if (recent_filled_ == 0 || next_zero_row_ == 0) return;

  // The recent-rows batch X is the filled ring prefix, viewed in place
  // (slots added by a recent rank growth may still be empty).
  const linalg::MatrixView x =
      linalg::MatrixView::rows_of(recent_, 0, recent_filled_);
  const linalg::MatrixView v = post_shrink_basis();
  double estimate = linalg::estimate_residual(x, v, config_.estimator,
                                              config_.nu, rng_, ws_);
  stats_.probe_count += config_.nu;
  static obs::Counter& probe_count =
      obs::metrics().counter("fd.probe_count");
  probe_count.add(config_.nu);
  if (config_.relative_error) {
    const double denom = linalg::frobenius_norm_squared(x);
    if (denom <= 0.0) return;  // an all-zero batch carries no signal
    estimate /= denom;
  }
  last_estimate_ = estimate;
  if (estimate > config_.epsilon) {
    increase_ell_ = true;
  }
}

}  // namespace arams::core
