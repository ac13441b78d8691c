#pragma once
// Frequent Directions matrix sketching (Liberty 2013; Ghashami, Liberty,
// Phillips, Woodruff 2016), in the fast 2ℓ-buffer formulation the paper's
// Algorithm 2 builds on.
//
// Invariant maintained by every shrink: the sketch B satisfies
//   0 ⪯ AᵀA − BᵀB  and  ‖AᵀA − BᵀB‖₂ ≤ ‖A‖²_F / ℓ
// where A is everything appended so far. This bound is property-tested.

#include <optional>
#include <span>

#include "core/sketch_stats.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"

namespace arams::core {

struct FdConfig {
  std::size_t sketch_rows = 32;  ///< ℓ — rows retained by the sketch
  /// true: fast variant (2ℓ buffer, one SVD per ℓ appends).
  /// false: textbook variant (ℓ buffer, one SVD per append) — reference
  /// implementation for tests; ~ℓ× slower.
  bool fast = true;
};

/// Streaming Frequent Directions sketch.
class FrequentDirections {
 public:
  explicit FrequentDirections(const FdConfig& config);

  /// Appends one data row. The first append fixes the column dimension d;
  /// subsequent rows must match it.
  void append(std::span<const double> row);

  /// fp32 ingest lane: identical control flow, widening the row directly
  /// into the buffer slot it lands in — no intermediate fp64 copy. All
  /// downstream arithmetic (shrink SVD) is fp64, so the result is bitwise
  /// identical to appending the widened row.
  void append(std::span<const float> row);

  /// Appends every row of a matrix or of a row range of one.
  void append_batch(linalg::MatrixView rows);

  /// fp32 batch ingest (row loop over the float append).
  void append_batch(linalg::MatrixViewF rows);

  /// Current sketch: the occupied (non-zero) buffer rows. May hold up to
  /// 2ℓ−1 rows mid-stream in the fast variant; call compress() first for a
  /// guaranteed ≤ ℓ rows.
  [[nodiscard]] linalg::Matrix sketch() const;

  /// Forces a shrink so the sketch has at most ℓ rows (no-op if it already
  /// does). Mid-stream compression keeps the FD guarantee.
  void compress();

  /// Orthonormal basis (k×d, k ≤ ℓ) of the current top sketch directions —
  /// the projector used for PCA and the rank-adaptation heuristic. Triggers
  /// a compress() if the buffer has overfilled past ℓ rows.
  [[nodiscard]] linalg::Matrix basis(std::size_t k);

  [[nodiscard]] std::size_t ell() const { return ell_; }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t occupied_rows() const { return next_zero_row_; }
  [[nodiscard]] const SketchStats& stats() const { return stats_; }

  /// Singular values found by the most recent shrink (descending). Empty
  /// before the first shrink.
  [[nodiscard]] const std::vector<double>& last_spectrum() const {
    return last_spectrum_;
  }

 protected:
  /// Grows ℓ by `extra` rows (rank adaptation). The buffer gains 2·extra
  /// slots in the fast variant.
  void grow_ell(std::size_t extra);

  /// One FD rotation+shrink of the occupied buffer rows. After it,
  /// next_zero_row_ = number of surviving non-zero rows (< ℓ).
  void shrink();

  [[nodiscard]] std::size_t buffer_capacity() const {
    return fast_ ? 2 * ell_ : ell_;
  }
  [[nodiscard]] bool buffer_full() const {
    return next_zero_row_ == buffer_capacity();
  }

  std::size_t ell_;
  bool fast_;
  std::size_t dim_ = 0;  ///< 0 until the first row arrives
  linalg::Matrix buffer_;
  std::size_t next_zero_row_ = 0;
  SketchStats stats_;
  std::vector<double> last_spectrum_;
  // Scratch reused across shrinks: after the first few calls every buffer
  // has reached its steady-state shape and shrink() is allocation-free.
  linalg::Workspace ws_;
  linalg::SigmaVt svd_;

 private:
  void ensure_dim(std::size_t d);
};

}  // namespace arams::core
