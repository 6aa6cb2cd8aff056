#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

LstsqResult lstsq(const Matrix& a, const Vector& b) {
  GPPM_CHECK(!a.empty(), "lstsq on empty matrix");
  GPPM_CHECK(b.size() == a.rows(), "rhs size mismatch");
  GPPM_CHECK(a.rows() >= a.cols(), "underdetermined system");
  std::vector<Vector> columns;
  columns.reserve(a.cols());
  IncrementalLstsq solver(b);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    columns.push_back(a.col(j));
    solver.append(columns.back().data());
  }
  return solver.solve();
}

IncrementalLstsq::IncrementalLstsq(const Vector& b)
    : b_(b), qr_(b.size()), scaled_(b.size()) {}

void IncrementalLstsq::append(const double* col) {
  const std::size_t m = b_.size();
  // Column equilibration.
  const double nrm = std::sqrt(simd::dot(col, col, m));
  const double scale = nrm > 0.0 ? nrm : 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    scaled_[i] = nrm > 0.0 ? col[i] / nrm : col[i];
  }
  qr_.append(scaled_.data());

  const double* q = qr_.q_col(qr_.cols() - 1);
  double qtb = 0.0;
  for (std::size_t i = 0; i < m; ++i) qtb += q[i] * b_[i];
  columns_.push_back(col);
  scale_.push_back(scale);
  qtb_.push_back(qtb);
}

void IncrementalLstsq::pop_back() {
  qr_.pop_back();
  columns_.pop_back();
  scale_.pop_back();
  qtb_.pop_back();
}

LstsqResult IncrementalLstsq::solve() const {
  const std::size_t m = b_.size(), n = cols();
  GPPM_CHECK(n > 0, "lstsq on empty matrix");
  Matrix r(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* rj = qr_.r_col(j);
    for (std::size_t i = 0; i <= j; ++i) r(i, j) = rj[i];
  }
  LstsqResult out;
  out.full_rank = qr_.full_rank();

  if (!out.full_rank) {
    // Regularize tiny diagonals: Tikhonov-like fallback keeps the solve
    // defined when forward selection probes a collinear candidate column.
    double max_diag = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max_diag = std::max(max_diag, std::abs(r(i, i)));
    const double bump = std::max(max_diag, 1.0) * 1e-10;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(r(i, i)) < bump) r(i, i) = (r(i, i) < 0 ? -bump : bump);
    }
  }

  // x_scaled = R^{-1} Q^T b
  const Vector xs = solve_upper_triangular(r, qtb_);
  out.x.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.x[j] = xs[j] / scale_[j];

  // Residual against the raw columns.  Each row sums its terms in column
  // order, as A * x does.
  Vector pred(m, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* a = columns_[j];
    const double xj = out.x[j];
    for (std::size_t i = 0; i < m; ++i) pred[i] += a[i] * xj;
  }
  double ss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double res = b_[i] - pred[i];
    ss += res * res;
  }
  out.residual_ss = ss;
  return out;
}

}  // namespace gppm::linalg
