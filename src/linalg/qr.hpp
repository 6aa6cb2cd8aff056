// Householder QR factorization, grown one column at a time.
//
// Used by the least-squares solver: QR is the numerically stable choice for
// the regression design matrices produced by the feature layer, whose columns
// (counter x frequency products) can differ by many orders of magnitude.
//
// Householder QR is column-sequential: column j's reflections, its column of
// R and its column of the thin Q depend on columns 0..j only.  So one
// factorization grows by append() and shrinks by pop_back(), and whatever
// sequence of appends and pops led to a set of columns, it holds the same
// bits as qr_decompose of those columns — which is itself one append per
// column.  Forward selection keeps the factorization of its accepted model
// and prices a trial column by append, solve and pop_back in O(m k)
// (stats/forward_selection.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace gppm::linalg {

/// Thin QR factorization A = Q R of an m x n matrix with m >= n.
/// Q is m x n with orthonormal columns; R is n x n upper triangular.
struct QrResult {
  Matrix q;
  Matrix r;
  /// True if no diagonal of R is (numerically) zero, i.e. A has full column
  /// rank at the given tolerance.
  bool full_rank = false;
};

/// Householder QR of an m-row matrix, built one column at a time.
///
/// append(col) applies the stored reflectors H_0..H_{j-1} to the new column
/// j in that order, forms reflector H_j from its entries at and below the
/// diagonal, and caches column j of R and column j of the thin Q,
/// Q e_j = H_0 ... H_j e_j, which no later column changes.  An append costs
/// O(m j).  Every reduction runs in one fixed order.
class HouseholderQr {
 public:
  explicit HouseholderQr(std::size_t rows);

  std::size_t cols() const { return n_; }

  /// Append column `col` (one double per row).  Requires fewer columns
  /// than rows.
  void append(const double* col);
  /// Drop the last column, leaving the factorization of the ones before it.
  void pop_back();

  /// Column j of the thin Q (one double per row).  Valid until the next
  /// append.
  const double* q_col(std::size_t j) const;
  /// Column j of R down to the diagonal (j + 1 doubles, R(j, j) last).
  /// Valid until the next append.
  const double* r_col(std::size_t j) const;

  /// True if the largest diagonal magnitude of R is nonzero and no diagonal
  /// is at most rank_tol times it.
  bool full_rank(double rank_tol = 1e-12) const;

  /// Explicit Q (rows x cols()) and R (cols() x cols()).
  QrResult result(double rank_tol = 1e-12) const;

 private:
  std::size_t m_ = 0, n_ = 0;
  std::vector<double> v_;  ///< reflector j: rows j..m-1 of block j (m each)
  std::vector<double> q_;  ///< thin-Q column j: block j (m each)
  std::vector<double> r_;  ///< R column j: j + 1 doubles from j (j + 1) / 2
  /// False for a reflector whose vector has zero norm: it is the identity.
  std::vector<bool> reflects_;
};

/// Compute the thin QR factorization by Householder reflections.
/// Requires a.rows() >= a.cols() and a non-empty matrix.
QrResult qr_decompose(const Matrix& a, double rank_tol = 1e-12);

/// Solve R x = b for upper-triangular R (back substitution).
/// Requires R square, b.size() == R.rows(), and nonzero diagonal.
Vector solve_upper_triangular(const Matrix& r, const Vector& b);

}  // namespace gppm::linalg
