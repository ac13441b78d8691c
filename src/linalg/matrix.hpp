#pragma once
// Dense row-major matrix of doubles. This is the storage type the whole
// library is built on: sketch buffers, image batches, latent embeddings.
//
// Design notes:
//  * Row-major because sketching appends/zeroes *rows* and the FD shrink
//    touches rows sequentially; row(i) is a contiguous std::span.
//  * Owning, value-semantic; views are std::span over rows. Deliberately no
//    expression templates — the hot kernels live in blas.hpp.
//  * MatrixF/MatrixViewF are the fp32 siblings used by the ingest lane:
//    detector frames arrive fp32, so the preprocessing → sketch path moves
//    float rows and widens to double only at the sketcher seam
//    (Sketcher::push_batch(MatrixViewF), or the fp32 priority sampler).

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace arams::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from nested initializer list (test convenience).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Sets every entry to v.
  void fill(double v);

  /// Zeroes the given row.
  void zero_row(std::size_t r);

  /// Copies `src` into row r. Length must equal cols().
  void set_row(std::size_t r, std::span<const double> src);

  /// Appends rows of zeros at the bottom (used by rank adaptation when the
  /// sketch buffer grows).
  void append_zero_rows(std::size_t count);

  /// Reinterprets the matrix as rows×cols, resizing storage as needed.
  /// Contents are unspecified afterwards. Storage is grow-only: shrinking
  /// or same-size reshapes never release or reallocate memory, which is
  /// what makes Workspace-held matrices allocation-free at steady state.
  void reshape(std::size_t rows, std::size_t cols);

  /// Bytes of the live rows*cols payload — the honest logical footprint.
  [[nodiscard]] std::size_t bytes() const {
    return data_.size() * sizeof(double);
  }

  /// Bytes of heap storage currently reserved (>= bytes(); grow-only
  /// storage keeps the high-water mark).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return data_.capacity() * sizeof(double);
  }

  /// Returns rows [r0, r1) as a new matrix.
  [[nodiscard]] Matrix slice_rows(std::size_t r0, std::size_t r1) const;

  /// Returns the transpose as a new matrix.
  [[nodiscard]] Matrix transposed() const;

  /// Stacks `top` over `bottom` (column counts must match).
  static Matrix vstack(const Matrix& top, const Matrix& bottom);

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning const view of a contiguous row range — the shape the dense
/// kernels consume. Converts implicitly from Matrix, so every kernel that
/// takes a MatrixView also accepts a Matrix; rows_of() views the occupied
/// prefix of a sketch buffer without the copy slice_rows() would make.
class MatrixView {
 public:
  constexpr MatrixView() = default;
  MatrixView(const double* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit.
  MatrixView(const Matrix& m) : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  /// Views rows [r0, r1) of m (a Matrix or a view). No copy; valid while
  /// m's storage is.
  static MatrixView rows_of(MatrixView m, std::size_t r0, std::size_t r1) {
    ARAMS_CHECK(r0 <= r1 && r1 <= m.rows(), "bad row view");
    return {m.data() + r0 * m.cols(), r1 - r0, m.cols()};
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] const double* data() const { return data_; }

  double operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "view index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "view row out of range");
    return {data_ + r * cols_, cols_};
  }

  /// Materializes the view as an owning Matrix (test/interop convenience).
  [[nodiscard]] Matrix to_matrix() const;

 private:
  const double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Dense row-major matrix of floats — the fp32 ingest-lane storage type.
/// Mirrors the Matrix surface the frame path needs (row spans, grow-only
/// reshape, slicing); it deliberately has no arithmetic of its own — rows
/// are widened before any matrix kernel reads them, so all accumulation
/// stays fp64.
class MatrixF {
 public:
  MatrixF() = default;

  /// rows x cols matrix, zero-initialized.
  MatrixF(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0F) {}

  /// Builds from nested initializer list (test convenience).
  MatrixF(std::initializer_list<std::initializer_list<float>> init);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  /// Sets every entry to v.
  void fill(float v);

  /// Zeroes the given row.
  void zero_row(std::size_t r);

  /// Copies `src` into row r. Length must equal cols().
  void set_row(std::size_t r, std::span<const float> src);

  /// Reinterprets the matrix as rows×cols, resizing storage as needed.
  /// Contents are unspecified afterwards. Grow-only, like Matrix::reshape.
  void reshape(std::size_t rows, std::size_t cols);

  /// Bytes of the live rows*cols payload.
  [[nodiscard]] std::size_t bytes() const {
    return data_.size() * sizeof(float);
  }

  /// Bytes of heap storage currently reserved (>= bytes()).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return data_.capacity() * sizeof(float);
  }

  /// Returns rows [r0, r1) as a new matrix.
  [[nodiscard]] MatrixF slice_rows(std::size_t r0, std::size_t r1) const;

  /// Widens to an owning fp64 Matrix (one cast per element).
  [[nodiscard]] Matrix to_matrix() const;

  /// Narrows an fp64 matrix to fp32 (one cast per element) — the "door"
  /// conversion when an fp64 source feeds the fp32 ingest lane.
  static MatrixF from_matrix(const Matrix& m);

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static float max_abs_diff(const MatrixF& a, const MatrixF& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Non-owning const view of contiguous fp32 rows — the shape the
/// fp32 priority sampler and Sketcher::push_batch(MatrixViewF) consume.
/// Converts implicitly from MatrixF, mirroring Matrix → MatrixView.
class MatrixViewF {
 public:
  constexpr MatrixViewF() = default;
  MatrixViewF(const float* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit.
  MatrixViewF(const MatrixF& m)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  /// Views rows [r0, r1) of m. No copy; valid while m's storage is.
  static MatrixViewF rows_of(const MatrixF& m, std::size_t r0,
                             std::size_t r1) {
    ARAMS_CHECK(r0 <= r1 && r1 <= m.rows(), "bad row view");
    return {m.data() + r0 * m.cols(), r1 - r0, m.cols()};
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] const float* data() const { return data_; }

  float operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "view index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "view row out of range");
    return {data_ + r * cols_, cols_};
  }

  /// Widens the view into an owning fp64 Matrix.
  [[nodiscard]] Matrix to_matrix() const;

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Widens `src` into `dst` in place (grow-only reshape + one cast per
/// element). Sketcher::push_batch(MatrixViewF) widens into a kept `dst`,
/// so steady-state fp32 ingest stays allocation-free.
void widen(MatrixViewF src, Matrix& dst);

}  // namespace arams::linalg
