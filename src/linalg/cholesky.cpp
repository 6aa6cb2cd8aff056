#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

Matrix cholesky(const Matrix& a) {
  GPPM_CHECK(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      // Rows i and j of the factor are contiguous prefixes: one SIMD dot.
      const double s = a(i, j) - simd::dot(l.row_ptr(i), l.row_ptr(j), j);
      if (i == j) {
        GPPM_CHECK(s > 0.0, "matrix not positive definite");
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

Vector solve_lower_triangular(const Matrix& l, const Vector& b) {
  GPPM_CHECK(l.rows() == l.cols(), "L must be square");
  GPPM_CHECK(b.size() == l.rows(), "rhs size mismatch");
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double acc = b[i] - simd::dot(l.row_ptr(i), y.data(), i);
    GPPM_CHECK(l(i, i) != 0.0, "singular triangular system");
    y[i] = acc / l(i, i);
  }
  return y;
}

Vector solve_lower_transposed(const Matrix& l, const Vector& y) {
  GPPM_CHECK(l.rows() == l.cols(), "L must be square");
  GPPM_CHECK(y.size() == l.rows(), "rhs size mismatch");
  const std::size_t n = l.rows();
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    // Column ii below the diagonal is an n-strided walk; the strided kernel
    // keeps the canonical summation tree without transposing the factor.
    const double acc =
        ii + 1 < n ? y[ii] - simd::dot_strided(l.row_ptr(ii + 1) + ii,
                                               x.data() + ii + 1, n - ii - 1,
                                               n, 1)
                   : y[ii];
    GPPM_CHECK(l(ii, ii) != 0.0, "singular triangular system");
    x[ii] = acc / l(ii, ii);
  }
  return x;
}

Vector cholesky_solve(const Matrix& a, const Vector& b) {
  GPPM_CHECK(b.size() == a.rows(), "rhs size mismatch");
  const Matrix l = cholesky(a);
  return solve_lower_transposed(l, solve_lower_triangular(l, b));
}

Matrix cholesky_update(const Matrix& l, const Vector& v) {
  GPPM_CHECK(l.rows() == l.cols(), "L must be square");
  GPPM_CHECK(v.size() == l.rows(), "update vector size mismatch");
  const std::size_t n = l.rows();
  Matrix out = l;
  Vector w = v;
  // Sequence of Givens rotations absorbing w into the factor.
  for (std::size_t k = 0; k < n; ++k) {
    const double lkk = out(k, k);
    const double r = std::hypot(lkk, w[k]);
    const double c = r / lkk;
    const double s = w[k] / lkk;
    out(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      out(i, k) = (out(i, k) + s * w[i]) / c;
      w[i] = c * w[i] - s * out(i, k);
    }
  }
  return out;
}

Matrix cholesky_downdate(const Matrix& l, const Vector& v) {
  GPPM_CHECK(l.rows() == l.cols(), "L must be square");
  GPPM_CHECK(v.size() == l.rows(), "downdate vector size mismatch");
  const std::size_t n = l.rows();
  Matrix out = l;
  Vector w = v;
  // Hyperbolic rotations; fails when A - v v^T loses positive definiteness.
  for (std::size_t k = 0; k < n; ++k) {
    const double lkk = out(k, k);
    const double rsq = lkk * lkk - w[k] * w[k];
    GPPM_CHECK(rsq > 0.0, "downdate makes matrix indefinite");
    const double r = std::sqrt(rsq);
    const double c = r / lkk;
    const double s = w[k] / lkk;
    out(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      out(i, k) = (out(i, k) - s * w[i]) / c;
      w[i] = c * w[i] - s * out(i, k);
    }
  }
  return out;
}

}  // namespace gppm::linalg
