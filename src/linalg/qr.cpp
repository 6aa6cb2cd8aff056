#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace gppm::linalg {

namespace {

/// Apply H = I - 2 v v^T, with v nonzero in rows k..m-1 only, to x.
void reflect(const double* v, std::size_t k, std::size_t m, double* x) {
  double s = 0.0;
  for (std::size_t i = k; i < m; ++i) s += v[i] * x[i];
  s *= 2.0;
  for (std::size_t i = k; i < m; ++i) x[i] -= s * v[i];
}

}  // namespace

HouseholderQr::HouseholderQr(std::size_t rows) : m_(rows) {}

void HouseholderQr::append(const double* col) {
  GPPM_CHECK(n_ < m_, "qr requires rows >= cols");
  const std::size_t m = m_, j = n_;
  v_.resize((j + 1) * m);
  q_.resize((j + 1) * m);
  r_.resize((j + 1) * (j + 2) / 2);
  reflects_.resize(j + 1);

  // The column is reflected in place in its own Q block, which is then
  // overwritten with Q e_j once R's column and the reflector are taken.
  double* w = q_.data() + j * m;
  std::copy(col, col + m, w);
  for (std::size_t k = 0; k < j; ++k) {
    if (reflects_[k]) reflect(v_.data() + k * m, k, m, w);
  }
  double* r = r_.data() + j * (j + 1) / 2;
  std::copy(w, w + j, r);

  // Reflector j from rows j..m-1.
  double* v = v_.data() + j * m;
  double norm_x = 0.0;
  for (std::size_t i = j; i < m; ++i) {
    v[i] = w[i];
    norm_x += v[i] * v[i];
  }
  norm_x = std::sqrt(norm_x);
  const double alpha = (v[j] >= 0.0) ? -norm_x : norm_x;
  v[j] -= alpha;
  const double vnorm = std::sqrt(simd::dot(v + j, v + j, m - j));
  reflects_[j] = vnorm > 0.0;
  if (reflects_[j]) {
    for (std::size_t i = j; i < m; ++i) v[i] /= vnorm;
    reflect(v, j, m, w);
  }
  r[j] = w[j];

  // Q e_j = H_0 ... H_j e_j, applied right to left.  H_k for k > j touches
  // rows k.. only, where e_j is zero, so later columns leave it alone.
  std::fill(w, w + m, 0.0);
  w[j] = 1.0;
  for (std::size_t k = j + 1; k-- > 0;) {
    if (reflects_[k]) reflect(v_.data() + k * m, k, m, w);
  }
  ++n_;
}

void HouseholderQr::pop_back() {
  GPPM_CHECK(n_ > 0, "pop_back on an empty qr");
  --n_;
  v_.resize(n_ * m_);
  q_.resize(n_ * m_);
  r_.resize(n_ * (n_ + 1) / 2);
  reflects_.resize(n_);
}

const double* HouseholderQr::q_col(std::size_t j) const {
  GPPM_CHECK(j < n_, "qr column out of range");
  return q_.data() + j * m_;
}

const double* HouseholderQr::r_col(std::size_t j) const {
  GPPM_CHECK(j < n_, "qr column out of range");
  return r_.data() + j * (j + 1) / 2;
}

bool HouseholderQr::full_rank(double rank_tol) const {
  // Rank check relative to the largest diagonal magnitude.
  double max_diag = 0.0;
  for (std::size_t j = 0; j < n_; ++j)
    max_diag = std::max(max_diag, std::abs(r_col(j)[j]));
  bool full = max_diag > 0.0;
  for (std::size_t j = 0; j < n_ && full; ++j) {
    if (std::abs(r_col(j)[j]) <= rank_tol * max_diag) full = false;
  }
  return full;
}

QrResult HouseholderQr::result(double rank_tol) const {
  QrResult out;
  out.q = Matrix(m_, n_);
  out.r = Matrix(n_, n_);
  for (std::size_t j = 0; j < n_; ++j) {
    const double* q = q_col(j);
    const double* r = r_col(j);
    for (std::size_t i = 0; i < m_; ++i) out.q(i, j) = q[i];
    for (std::size_t i = 0; i <= j; ++i) out.r(i, j) = r[i];
  }
  out.full_rank = full_rank(rank_tol);
  return out;
}

QrResult qr_decompose(const Matrix& a, double rank_tol) {
  GPPM_CHECK(!a.empty(), "qr of empty matrix");
  GPPM_CHECK(a.rows() >= a.cols(), "qr requires rows >= cols");
  HouseholderQr qr(a.rows());
  for (std::size_t j = 0; j < a.cols(); ++j) qr.append(a.col(j).data());
  return qr.result(rank_tol);
}

Vector solve_upper_triangular(const Matrix& r, const Vector& b) {
  GPPM_CHECK(r.rows() == r.cols(), "R must be square");
  GPPM_CHECK(b.size() == r.rows(), "rhs size mismatch");
  const std::size_t n = r.rows();
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
    GPPM_CHECK(r(ii, ii) != 0.0, "singular triangular system");
    x[ii] = acc / r(ii, ii);
  }
  return x;
}

}  // namespace gppm::linalg
