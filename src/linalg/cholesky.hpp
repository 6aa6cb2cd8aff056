// Cholesky factorization of symmetric positive-definite matrices, plus the
// rank-1 operations the online refit engine (stats::StreamingOls) is built
// on.
//
// The normal equations solved here are small (an intercept plus at most a
// few tens of selected variables).  The update/downdate routines let a
// factor track a rank-1 perturbed Gram matrix in O(k^2) instead of
// refactorizing in O(k^3).
#pragma once

#include "linalg/matrix.hpp"

namespace gppm::linalg {

/// Lower-triangular L with A = L L^T.  Throws gppm::Error if A is not
/// (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Solve A x = b given A's Cholesky factor is computed internally.
/// Requires A symmetric positive definite.
Vector cholesky_solve(const Matrix& a, const Vector& b);

/// Solve L y = b for lower-triangular L (forward substitution).
Vector solve_lower_triangular(const Matrix& l, const Vector& b);

/// Solve L^T x = y for lower-triangular L (back substitution on L^T).
Vector solve_lower_transposed(const Matrix& l, const Vector& y);

/// Factor of the rank-1 update A + v v^T, given L with A = L L^T.  O(k^2).
Matrix cholesky_update(const Matrix& l, const Vector& v);

/// Factor of the rank-1 downdate A - v v^T, given L with A = L L^T.  O(k^2).
/// Throws gppm::Error if the downdated matrix is not positive definite.
Matrix cholesky_downdate(const Matrix& l, const Vector& v);

}  // namespace gppm::linalg
