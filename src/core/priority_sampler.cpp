#include "core/priority_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "util/check.hpp"

namespace arams::core {

using linalg::Matrix;

namespace {

using Candidate = PrioritySampleScratch::Candidate;

bool min_priority(const Candidate& a, const Candidate& b) {
  return a.priority > b.priority;  // min-heap on priority
}

/// The one-shot sampler over a Matrix or a MatrixViewF. norm2_squared
/// accumulates in double for both element types; the fp32 overload reduces
/// in a faster (multi-accumulator) order, so an fp32 row's weight may
/// differ from its widened twin's in the last ulp — far below anything
/// that flips a keep/evict decision against the continuous priority draw,
/// but enough that rescaled rows are only equal-to-rounding (not bitwise)
/// across lanes.
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
  ARAMS_CHECK(n > 0, "priority_sample of an empty matrix");
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
  // is exactly 1 for rows kept unscaled, so every row is the product a
  // copy followed by an in-place scale would form.
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
