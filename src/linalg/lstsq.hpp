// Linear least squares via QR with column equilibration.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace gppm::linalg {

/// Result of a least-squares solve min ||A x - b||_2.
struct LstsqResult {
  Vector x;              ///< coefficient vector, size A.cols()
  double residual_ss;    ///< sum of squared residuals
  bool full_rank;        ///< false if A was column-rank-deficient
};

/// Solve the least-squares problem by Householder QR.  Columns of A are
/// scaled to unit norm before factorization and the solution is unscaled,
/// which keeps the solve stable for design matrices whose columns span many
/// orders of magnitude (counter values vs. intercept).  Rank-deficient
/// columns get coefficient 0 and full_rank=false.
LstsqResult lstsq(const Matrix& a, const Vector& b);

/// lstsq over a design A grown one column at a time.
///
/// append() equilibrates a column (divides it by its Euclidean norm unless
/// that is zero), appends it to one HouseholderQr and caches its entry of
/// Q^T b; pop_back() undoes the last append.  solve() returns exactly what
/// lstsq returns for the matrix of the columns appended so far, at O(m k)
/// plus the O(k^2) triangular solve.  b and every appended column are
/// borrowed: the caller keeps them alive and unchanged.
class IncrementalLstsq {
 public:
  explicit IncrementalLstsq(const Vector& b);

  std::size_t cols() const { return columns_.size(); }

  /// Append design column `col` (b.size() doubles).  Requires
  /// cols() < b.size().
  void append(const double* col);
  void pop_back();

  bool full_rank() const { return qr_.full_rank(); }
  /// Requires cols() >= 1.
  LstsqResult solve() const;

 private:
  const Vector& b_;
  HouseholderQr qr_;
  std::vector<const double*> columns_;  ///< raw (unscaled) design columns
  Vector scale_;                        ///< equilibration divisor per column
  Vector qtb_;                          ///< (Q^T b)[j] per column
  Vector scaled_;                       ///< scratch: the column being appended
};

}  // namespace gppm::linalg
