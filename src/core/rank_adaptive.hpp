#pragma once
// Rank-Adaptive Frequent Directions — Algorithms 1 & 2 of the paper.
//
// Instead of fixing the sketch rank ℓ, the practitioner specifies a target
// reconstruction error ε. After each FD rotation the algorithm estimates,
// with ν Gaussian probes (Algorithm 1), the reconstruction error of the
// most recent ℓ rows against the sketch's current principal subspace; if it
// exceeds ε the next full-buffer event grows ℓ instead of shrinking.
//
// Deviations from the pseudocode, called out in DESIGN.md:
//  * the rank increment is a separate `rank_step` (the paper reuses ν);
//  * the threshold is relative (residual / ‖X_batch‖²_F) by default, with
//    an absolute mode for fidelity to the paper's sweeps;
//  * `max_ell` caps growth so a hostile stream cannot exhaust memory.

#include <limits>
#include <vector>

#include "core/fd.hpp"
#include "linalg/trace_est.hpp"
#include "rng/rng.hpp"

namespace arams::core {

struct RankAdaptiveConfig {
  std::size_t initial_ell = 16;  ///< starting sketch rank
  int nu = 10;                   ///< Gaussian probes per estimate (ν)
  std::size_t rank_step = 0;     ///< rows added per adaptation; 0 → ν
  double epsilon = 0.05;         ///< error threshold (relative by default)
  bool relative_error = true;    ///< divide the estimate by ‖X_batch‖²_F
  std::size_t max_ell = 4096;    ///< hard cap on ℓ (0 = unlimited)
  std::uint64_t seed = 1234;     ///< probe RNG seed
  /// Reconstruction-error estimator. The paper uses Gaussian probes and
  /// names stochastic trace estimation as the future-work upgrade; both
  /// Hutchinson and Hutch++ are available (see linalg/trace_est.hpp).
  linalg::ResidualEstimator estimator =
      linalg::ResidualEstimator::kGaussianProbes;
};

/// Streaming rank-adaptive FD sketch (Algorithm 2).
class RankAdaptiveFd : public FrequentDirections {
 public:
  explicit RankAdaptiveFd(const RankAdaptiveConfig& config);

  /// Appends one row, adapting the rank on buffer-full events.
  void append(std::span<const double> row);

  void append_batch(linalg::MatrixView rows);

  /// Paper-faithful batch entry point: announces the total row count so
  /// the `rowsLeft > ℓ + ν` guard (Algorithm 2 line 8) is active, streams
  /// every row, compresses, and returns the sketch.
  linalg::Matrix process(const linalg::Matrix& x);

  /// Announces how many rows remain (enables the rowsLeft guard). Pass 0
  /// to return to open-ended streaming (guard always passes).
  void set_rows_remaining(long rows) { rows_remaining_ = rows; }

  [[nodiscard]] const RankAdaptiveConfig& config() const { return config_; }

  /// Most recent reconstruction-error estimate (NaN before the first one).
  [[nodiscard]] double last_error_estimate() const { return last_estimate_; }

 private:
  /// Algorithm 1: estimates the batch reconstruction error against the
  /// post-shrink sketch subspace and arms `increase_ell_` if it's above ε.
  void update_adaptation_decision();

  /// Orthonormal right-vector basis recovered from the just-shrunk buffer
  /// rows (they are orthogonal scaled vᵢᵀ — normalizing suffices), written
  /// into the workspace slot wslot::kRankBasis.
  [[nodiscard]] linalg::MatrixView post_shrink_basis();

  [[nodiscard]] bool can_rank_adapt() const;

  RankAdaptiveConfig config_;
  Rng rng_;
  bool increase_ell_ = false;
  long rows_remaining_ = 0;  ///< 0 = unknown (streaming)
  double last_estimate_ = std::numeric_limits<double>::quiet_NaN();

  /// Contiguous ring of the most recent rows (ℓ×d, rows track ℓ).
  linalg::Matrix recent_;
  std::size_t recent_next_ = 0;    ///< slot the next row lands in
  std::size_t recent_filled_ = 0;  ///< filled slots, always a prefix
};

}  // namespace arams::core
