#pragma once
// Streaming priority sampler (Duffield, Lund, Thorup 2007): the bounded
// one-row-at-a-time form of core::priority_sample, kept as the tests'
// oracle. It copies every row it keeps, where the production sampler keeps
// row indices over a batch; both draw one uniform per non-zero row from
// Rng(config.seed) and apply the same keep/evict rule and τ, so a sampler
// of capacity ⌈βn⌉ fed a batch and drained by take() must equal
// priority_sample(batch, β) bitwise.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/priority_sampler.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::test {

/// Bounded streaming priority sampler over matrix rows, retaining
/// `capacity` rows.
class PrioritySampler {
 public:
  explicit PrioritySampler(std::size_t capacity,
                           const core::PrioritySamplerConfig& config = {})
      : capacity_(capacity), config_(config), rng_(config.seed) {
    ARAMS_CHECK(capacity >= 1, "sampler capacity must be >= 1");
    heap_.reserve(capacity + 2);
  }

  /// Offers one row to the sampler.
  void push(std::span<const double> row) { push_any(row); }

  /// fp32 rows: the norm accumulates in double either way and the retained
  /// row is widened on entry.
  void push(std::span<const float> row) { push_any(row); }

  void push_batch(const linalg::Matrix& rows) {
    for (std::size_t r = 0; r < rows.rows(); ++r) push(rows.row(r));
  }

  void push_batch(linalg::MatrixViewF rows) {
    for (std::size_t r = 0; r < rows.rows(); ++r) push(rows.row(r));
  }

  /// Extracts the sampled (and rescaled) rows, in stream order, and resets
  /// the sampler for the next batch.
  linalg::Matrix take() {
    ARAMS_CHECK(dim_ > 0, "take() before any rows were pushed");
    // The smallest of the m+1 retained priorities is exactly τ and leaves
    // the sample; a stream that never overflowed is kept exactly (τ = 0).
    double tau = 0.0;
    if (heap_.size() > capacity_) {
      std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
      tau = heap_.back().priority;
      heap_.pop_back();
    }
    std::vector<Entry> kept = std::move(heap_);
    heap_.clear();
    last_threshold_ = tau;
    std::sort(kept.begin(), kept.end(),
              [](const Entry& a, const Entry& b) { return a.order < b.order; });

    linalg::Matrix out(kept.size(), dim_);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      auto dst = out.row(i);
      std::copy(kept[i].row.begin(), kept[i].row.end(), dst.begin());
      if (config_.rescale && tau > 0.0 && kept[i].weight < tau) {
        // Inclusion probability qᵢ = wᵢ/τ < 1; dividing the squared mass
        // by qᵢ keeps E[B̃ᵀB̃] = AᵀA.
        linalg::scale(dst, std::sqrt(tau / kept[i].weight));
      }
    }
    rows_seen_ = 0;
    dim_ = 0;
    return out;
  }

  /// τ of the most recent take(): the (m+1)-th largest priority, 0 when the
  /// stream did not overflow the capacity.
  [[nodiscard]] double last_threshold() const { return last_threshold_; }

 private:
  struct Entry {
    double priority;
    double weight;
    long order;  ///< arrival index, to restore stream order on take()
    std::vector<double> row;
  };
  struct MinPriority {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.priority > b.priority;  // min-heap on priority
    }
  };

  template <typename T>
  void push_any(std::span<const T> row) {
    if (dim_ == 0) {
      dim_ = row.size();
      ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
    } else {
      ARAMS_CHECK(row.size() == dim_, "row dimension changed mid-stream");
    }
    double w = linalg::norm2_squared(row);
    if (config_.weight == core::SamplingWeight::kRowNorm) w = std::sqrt(w);
    ++rows_seen_;
    if (w <= 0.0) return;  // zero rows carry no covariance mass
    double u = 0.0;
    do {
      u = rng_.uniform();
    } while (u <= 0.0);
    const double priority = w / u;

    // Keep the top (capacity + 1) priorities: the extra element is τ.
    if (heap_.size() == capacity_ + 1) {
      if (priority <= heap_.front().priority) return;
      std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
      heap_.pop_back();
    }
    heap_.push_back(Entry{priority, w, rows_seen_ - 1,
                          std::vector<double>(row.begin(), row.end())});
    std::push_heap(heap_.begin(), heap_.end(), MinPriority{});
  }

  std::size_t capacity_;
  core::PrioritySamplerConfig config_;
  Rng rng_;
  std::vector<Entry> heap_;  ///< min-heap of the top-(m+1) priorities
  long rows_seen_ = 0;
  double last_threshold_ = 0.0;
  std::size_t dim_ = 0;
};

}  // namespace arams::test
