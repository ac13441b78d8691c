#pragma once
// Priority sampling of matrix rows (Duffield, Lund, Thorup 2007), the
// acceleration stage of ARAMS. Each row gets weight wᵢ (squared row norm by
// default) and priority pᵢ = wᵢ/uᵢ with uᵢ ~ U(0,1); the m rows of highest
// priority form the sample. With τ = the (m+1)-th highest priority, the
// estimator ŵᵢ = max(wᵢ, τ) makes subset-sum estimates unbiased; for matrix
// sketching each kept row is rescaled by √(max(1, τ/wᵢ)) so that
// E[B̃ᵀB̃] = AᵀA (property-tested).

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::core {

enum class SamplingWeight {
  kRowNormSquared,  ///< wᵢ = ‖Aᵢ‖² — unbiased covariance (default)
  kRowNorm,         ///< wᵢ = ‖Aᵢ‖ — the form stated in the paper's text
};

struct PrioritySamplerConfig {
  SamplingWeight weight = SamplingWeight::kRowNormSquared;
  bool rescale = true;  ///< apply the unbiasedness rescaling
  std::uint64_t seed = 99;
};

/// Grow-only buffers for priority_sample. Reused across calls at a steady
/// batch shape, they make sampling allocation-free.
struct PrioritySampleScratch {
  /// A row still in the running: its priority, weight and batch index.
  struct Candidate {
    double priority;
    double weight;
    std::size_t index;
  };
  std::vector<Candidate> heap;  ///< min-heap of the top-(m+1) priorities
  linalg::Matrix rows;          ///< the sample of the latest call
};

/// One-shot: priority-samples the rows of `a` down to m = ⌈fraction·n⌉
/// rows into scratch.rows and returns it, survivors in row order. fraction
/// in (0, 1]; 1 copies `a` unchanged. Each call seeds one Rng with
/// config.seed and visits the rows in order, each non-zero row drawing one
/// uniform; a min-heap of row indices keeps the top m+1 priorities, so only
/// the survivors are copied, once. `a` is read in place, so a row range of
/// a larger matrix (MatrixView::rows_of) costs no copy. The streaming
/// reference in tests/priority_sampler_oracle.hpp makes the same decisions
/// bitwise. Throws CheckError on an empty `a` (fraction < 1).
const linalg::Matrix& priority_sample(linalg::MatrixView a, double fraction,
                                      const PrioritySamplerConfig& config,
                                      PrioritySampleScratch& scratch);

/// fp32 one-shot: the same weights (accumulated in double), draws and
/// decisions; only the survivors are widened (fraction ≥ 1 widens the
/// whole view).
const linalg::Matrix& priority_sample(linalg::MatrixViewF a, double fraction,
                                      const PrioritySamplerConfig& config,
                                      PrioritySampleScratch& scratch);

}  // namespace arams::core
