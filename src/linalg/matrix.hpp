// Dense row-major matrix and vector types.
//
// The regression layer needs only small dense problems (hundreds of rows,
// tens of columns), so this is a deliberately simple self-contained
// implementation: no expression templates, no BLAS dependency, bounds checks
// in every accessor (the cost is irrelevant at these sizes and the safety is
// not).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace gppm::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Bounds-checked element access.
  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Copy of row r as a vector.
  Vector row(std::size_t r) const;
  /// Borrowed pointer to row r's contiguous storage (cols() doubles).  The
  /// SIMD kernels (common/simd.hpp) consume rows through this, and the
  /// table build and the scoring scratch write whole rows through the
  /// mutable one.
  const double* row_ptr(std::size_t r) const;
  double* row_ptr(std::size_t r);
  /// Copy of column c as a vector.
  Vector col(std::size_t c) const;
  /// Overwrite column c.
  void set_col(std::size_t c, const Vector& v);

  /// Dot product of two columns, computed in place (no temporary copies).
  /// Strided access (row-major storage), but over the same fixed 8-lane
  /// summation tree as the contiguous SIMD kernels, so col_dot over a
  /// column equals simd::dot over that column copied contiguous, bit for
  /// bit (the GramSystem column-panel path relies on this).
  double col_dot(std::size_t c1, std::size_t c2) const;
  /// Dot product of two rows (contiguous in memory, SIMD-vectorized).
  double row_dot(std::size_t r1, std::size_t r2) const;

  /// Matrix transpose.
  Matrix transposed() const;

  /// Matrix-matrix product; dimensions must agree.
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product; v.size() must equal cols().
  Vector operator*(const Vector& v) const;

  /// Max absolute element difference; matrices must be the same shape.
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// a - b elementwise; sizes must match.
Vector sub(const Vector& a, const Vector& b);

}  // namespace gppm::linalg
