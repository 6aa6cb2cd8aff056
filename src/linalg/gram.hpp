// Normal-equations precomputation for incremental least squares.
//
// Forward selection scores hundreds of candidate fits that all share one
// sample matrix X.  Instead of refactorizing a design matrix per trial, the
// Gram system is built once — G = X^T X and c = X^T y over the *full*
// candidate set plus an implicit intercept column — and every trial fit is
// then answered from submatrices of G in O(k^2) via Cholesky (see
// stats/forward_selection.cpp).
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
  Matrix gram;       ///< (p+1) x (p+1) normalized X^T X, unit diagonal
  Vector xty;        ///< (p+1) normalized X^T y
  Vector col_scale;  ///< per-design-column Euclidean norm (0 for zero cols)
  /// Transpose-once column panel: row j is candidate column j of X stored
  /// contiguously (p x n).  Built once per system so every column dot in
  /// the Gram accumulation — and any later streaming refit against the
  /// same sample block — is a contiguous SIMD kernel instead of a
  /// cols()-strided walk over the row-major sample matrix.
  Matrix panel;
  double yty = 0.0;  ///< y^T y
  double tss = 0.0;  ///< total sum of squares about the mean of y
  std::size_t n_rows = 0;
  std::size_t n_candidates = 0;
};

/// Smallest sample matrix, in rows x candidates, over which a fit asked to
/// run in parallel (the Gram build and forward selection's candidate
/// scoring) actually fans out over the shared compute pool.  Below it the
/// pool's hand-offs cost more than the split saves.  Set from
/// bench_selection_speedup's two problems: at paper scale (798 x 74, 59k
/// cells, cap 20) the fan-out ran 0.88x serial, at 2048 x 192 (393k cells)
/// 1.80x.
inline constexpr std::size_t kParallelMinCells = std::size_t{1} << 17;

/// True when a fit over a rows x cols sample matrix is large enough to fan
/// out (rows * cols >= kParallelMinCells).
inline bool parallel_pays(std::size_t rows, std::size_t cols) {
  return rows * cols >= kParallelMinCells;
}

/// Build the Gram system.  With `parallel` set and a sample matrix past
/// kParallelMinCells, the O(p^2 n) entry computation fans out over the
/// shared compute pool; each Gram entry is produced by exactly one task with
/// a fixed summation order (the common/simd.hpp 8-lane tree, identical on
/// every backend), so the result is bit-identical to the serial build and
/// to a -DGPPM_SIMD=off build.
GramSystem build_gram_system(const Matrix& candidates, const Vector& y,
                             bool parallel = false);

}  // namespace gppm::linalg
