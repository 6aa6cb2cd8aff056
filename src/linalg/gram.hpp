// Normal-equations precomputation for incremental least squares.
//
// Forward selection scores hundreds of candidate fits that all share one
// sample matrix X.  Instead of refactorizing a design matrix per trial, the
// Gram system holds what every trial fit reads — c = X^T y over the *full*
// candidate set plus an implicit intercept column, and the column panel
// from which any column of G = X^T X is computed on demand — and every
// trial fit is then answered from entries of G via Cholesky (see
// stats/gram_scorer.hpp).
//
// Columns of G are computed on demand, not built as one (p+1)^2 matrix:
// selection to K variables reads only the columns of the K accepted terms,
// so it costs O(K p n) instead of the O(p^2 n) of the full matrix.  The
// build itself is O(p n): the column panel, the column scales, the
// intercept row and X^T y.
//
// Columns are normalized to unit Euclidean length (the same equilibration
// lstsq applies), which keeps the Gram matrix conditioned even though raw
// counter features span many orders of magnitude.  All R^2-type statistics
// are invariant under this column scaling.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace gppm::linalg {

/// Precomputed normal equations of the design [1 | X] against target y,
/// with unit-normalized columns.  Design index 0 is the intercept; candidate
/// column j of X is design index j + 1.
struct GramSystem {
  /// (p+1) normalized intercept row of X^T X: 1 first, then each
  /// candidate's column sum over (sqrt(n) times its scale), 0 for a zero
  /// column.
  Vector intercept;
  Vector xty;        ///< (p+1) normalized X^T y
  Vector col_scale;  ///< per-design-column Euclidean norm (0 for zero cols)
  /// Transpose-once column panel: row j is candidate column j of X stored
  /// contiguously (p x n).  Built once per system so every column dot of
  /// a Gram column — and any later streaming refit against the same
  /// sample block — is a contiguous SIMD kernel instead of a cols()-strided
  /// walk over the row-major sample matrix.
  Matrix panel;
  double yty = 0.0;  ///< y^T y
  double tss = 0.0;  ///< total sum of squares about the mean of y
  std::size_t n_rows = 0;
  std::size_t n_candidates = 0;

  /// Write design column a of the normalized X^T X into out (p+1 doubles):
  /// entry d is 1 for d == a, 0 when column a or d is all-zero, the
  /// intercept row's entry when a or d is 0, and otherwise
  /// simd::dot(panel row lo, panel row hi) / (s_lo * s_hi) over the lower
  /// and higher candidate index of a and d.  So entry d of column a equals
  /// entry a of column d bit for bit.  Each dot keeps one fixed summation
  /// order (the common/simd.hpp 8-lane tree, identical on every backend),
  /// so the column is bit-identical to a -DGPPM_SIMD=off build's.
  void column(std::size_t a, double* out) const;
};

/// Build the Gram system's O(p n) parts: the column panel, the column
/// scales, the intercept row, X^T y, y^T y and tss.  Gram columns come
/// from GramSystem::column.
GramSystem build_gram_system(const Matrix& candidates, const Vector& y);

}  // namespace gppm::linalg
