#include "linalg/matrix.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    GPPM_CHECK(row.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  GPPM_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  GPPM_CHECK(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

Vector Matrix::row(std::size_t r) const {
  GPPM_CHECK(r < rows_, "row out of range");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

const double* Matrix::row_ptr(std::size_t r) const {
  GPPM_CHECK(r < rows_, "row out of range");
  return data_.data() + r * cols_;
}

double* Matrix::row_ptr(std::size_t r) {
  GPPM_CHECK(r < rows_, "row out of range");
  return data_.data() + r * cols_;
}

Vector Matrix::col(std::size_t c) const {
  GPPM_CHECK(c < cols_, "col out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = data_[r * cols_ + c];
  return v;
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  GPPM_CHECK(c < cols_, "col out of range");
  GPPM_CHECK(v.size() == rows_, "column size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) data_[r * cols_ + c] = v[r];
}

double Matrix::col_dot(std::size_t c1, std::size_t c2) const {
  GPPM_CHECK(c1 < cols_ && c2 < cols_, "col out of range");
  return simd::dot_strided(data_.data() + c1, data_.data() + c2, rows_, cols_,
                           cols_);
}

double Matrix::row_dot(std::size_t r1, std::size_t r2) const {
  GPPM_CHECK(r1 < rows_ && r2 < rows_, "row out of range");
  return simd::dot(data_.data() + r1 * cols_, data_.data() + r2 * cols_,
                   cols_);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  GPPM_CHECK(cols_ == rhs.rows_, "matmul dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[i * cols_ + k];
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs.data_[k * rhs.cols_ + j];
      }
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  GPPM_CHECK(v.size() == cols_, "matvec dimension mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += data_[i * cols_ + j] * v[j];
    out[i] = acc;
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  GPPM_CHECK(rows_ == other.rows_ && cols_ == other.cols_, "shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

double dot(const Vector& a, const Vector& b) {
  GPPM_CHECK(a.size() == b.size(), "dot size mismatch");
  return simd::dot(a.data(), b.data(), a.size());
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector sub(const Vector& a, const Vector& b) {
  GPPM_CHECK(a.size() == b.size(), "sub size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

}  // namespace gppm::linalg
