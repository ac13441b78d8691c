#include "core/priority_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "util/check.hpp"

namespace arams::core {

using linalg::Matrix;

PrioritySampler::PrioritySampler(const PrioritySamplerConfig& config)
    : config_(config), rng_(config.seed) {
  ARAMS_CHECK(config.capacity >= 1, "sampler capacity must be >= 1");
  heap_.reserve(config.capacity + 2);
}

template <typename T>
void PrioritySampler::push_any(std::span<const T> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
  } else {
    ARAMS_CHECK(row.size() == dim_, "row dimension changed mid-stream");
  }

  // norm2_squared accumulates in double for both element types. The fp32
  // overload reduces in a faster (multi-accumulator) order, so its weight
  // may differ from the widened stream's in the last ulp — far below
  // anything that flips a keep/evict decision against the continuous
  // priority draw, but enough that rescaled rows are only
  // equal-to-rounding (not bitwise) across lanes.
  double w = linalg::norm2_squared(row);
  if (config_.weight == SamplingWeight::kRowNorm) {
    w = std::sqrt(w);
  }
  ++rows_seen_;
  if (w <= 0.0) {
    return;  // zero rows carry no covariance mass; never sampled
  }
  double u = 0.0;
  do {
    u = rng_.uniform();
  } while (u <= 0.0);
  const double priority = w / u;

  // Keep the top (capacity + 1) priorities: the extra element is τ.
  if (heap_.size() < config_.capacity + 1) {
    heap_.push_back(Entry{priority, w, rows_seen_ - 1,
                          std::vector<double>(row.begin(), row.end())});
    std::push_heap(heap_.begin(), heap_.end(), MinPriority{});
    return;
  }
  if (priority <= heap_.front().priority) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
  heap_.back() =
      Entry{priority, w, rows_seen_ - 1,
            std::vector<double>(row.begin(), row.end())};
  std::push_heap(heap_.begin(), heap_.end(), MinPriority{});
}

void PrioritySampler::push(std::span<const double> row) { push_any(row); }

void PrioritySampler::push(std::span<const float> row) { push_any(row); }

void PrioritySampler::push_batch(const Matrix& rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    push(rows.row(r));
  }
}

void PrioritySampler::push_batch(linalg::MatrixViewF rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    push(rows.row(r));
  }
}

Matrix PrioritySampler::take() {
  ARAMS_CHECK(dim_ > 0, "take() before any rows were pushed");

  double tau = 0.0;
  std::vector<Entry> kept;
  if (heap_.size() > config_.capacity) {
    // The smallest of the m+1 retained priorities is exactly τ; it is
    // dropped from the sample.
    std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
    tau = heap_.back().priority;
    heap_.pop_back();
  } else {
    // Stream never overflowed: every row is kept exactly, no rescaling.
    tau = 0.0;
  }
  kept = std::move(heap_);
  heap_.clear();
  last_threshold_ = tau;

  std::sort(kept.begin(), kept.end(),
            [](const Entry& a, const Entry& b) { return a.order < b.order; });

  Matrix out(kept.size(), dim_);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    auto dst = out.row(i);
    std::copy(kept[i].row.begin(), kept[i].row.end(), dst.begin());
    if (config_.rescale && tau > 0.0 && kept[i].weight < tau) {
      // Inclusion probability qᵢ = wᵢ/τ < 1; dividing the squared mass by
      // qᵢ keeps E[B̃ᵀB̃] = AᵀA.
      linalg::scale(dst, std::sqrt(tau / kept[i].weight));
    }
  }

  rows_seen_ = 0;
  dim_ = 0;
  return out;
}

namespace {

using Candidate = PrioritySampleScratch::Candidate;

bool min_priority(const Candidate& a, const Candidate& b) {
  return a.priority > b.priority;  // min-heap on priority
}

/// The one-shot sampler over a Matrix or a MatrixViewF: PrioritySampler's
/// weights, draws and keep/evict rule, applied to row indices.
template <typename View>
const Matrix& sample_rows(const View& a, double fraction,
                          const PrioritySamplerConfig& config,
                          PrioritySampleScratch& scratch) {
  ARAMS_CHECK(fraction > 0.0 && fraction <= 1.0,
              "sampling fraction must be in (0, 1]");
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  Matrix& out = scratch.rows;
  if (fraction >= 1.0) {
    out.reshape(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = a.row(i);
      std::copy(src.begin(), src.end(), out.row(i).begin());
    }
    return out;
  }
  ARAMS_CHECK(n > 0, "take() before any rows were pushed");
  ARAMS_CHECK(d > 0, "zero-dimensional rows");
  const std::size_t capacity = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n))),
      1);

  // Keep the top (capacity + 1) priorities: the extra element is τ.
  std::vector<Candidate>& heap = scratch.heap;
  heap.clear();
  Rng rng(config.seed);
  for (std::size_t i = 0; i < n; ++i) {
    double w = linalg::norm2_squared(a.row(i));
    if (config.weight == SamplingWeight::kRowNorm) {
      w = std::sqrt(w);
    }
    if (w <= 0.0) continue;  // zero rows carry no covariance mass
    double u = 0.0;
    do {
      u = rng.uniform();
    } while (u <= 0.0);
    const double priority = w / u;
    if (heap.size() < capacity + 1) {
      heap.push_back(Candidate{priority, w, i});
    } else if (priority > heap.front().priority) {
      std::pop_heap(heap.begin(), heap.end(), min_priority);
      heap.back() = Candidate{priority, w, i};
    } else {
      continue;
    }
    std::push_heap(heap.begin(), heap.end(), min_priority);
  }

  // The smallest of the m+1 retained priorities is τ and leaves the
  // sample; a batch that never overflowed is kept exactly (τ = 0).
  double tau = 0.0;
  if (heap.size() > capacity) {
    std::pop_heap(heap.begin(), heap.end(), min_priority);
    tau = heap.back().priority;
    heap.pop_back();
  }
  std::sort(heap.begin(), heap.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.index < y.index;
            });

  // Copy (widening fp32) and rescale each survivor in one pass. The factor
  // is exactly 1 for rows kept unscaled, and copy-then-scale forms the
  // same products, so the rows match PrioritySampler::take() bitwise.
  out.reshape(heap.size(), d);
  for (std::size_t r = 0; r < heap.size(); ++r) {
    const Candidate& c = heap[r];
    // Inclusion probability qᵢ = wᵢ/τ < 1; dividing the squared mass by qᵢ
    // keeps E[B̃ᵀB̃] = AᵀA.
    const double factor = config.rescale && tau > 0.0 && c.weight < tau
                              ? std::sqrt(tau / c.weight)
                              : 1.0;
    const auto src = a.row(c.index);
    auto dst = out.row(r);
    for (std::size_t j = 0; j < d; ++j) {
      dst[j] = static_cast<double>(src[j]) * factor;
    }
  }
  return out;
}

}  // namespace

const Matrix& priority_sample(const Matrix& a, double fraction,
                              const PrioritySamplerConfig& config,
                              PrioritySampleScratch& scratch) {
  return sample_rows(a, fraction, config, scratch);
}

const Matrix& priority_sample(linalg::MatrixViewF a, double fraction,
                              const PrioritySamplerConfig& config,
                              PrioritySampleScratch& scratch) {
  return sample_rows(a, fraction, config, scratch);
}

}  // namespace arams::core
