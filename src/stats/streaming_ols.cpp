#include "stats/streaming_ols.hpp"

#include "common/error.hpp"
#include "linalg/cholesky.hpp"

namespace gppm::stats {

namespace {

/// Tikhonov prior lambda*I added to the Gram matrix: keeps the factor
/// positive definite before any row arrives and bounds the condition
/// number after collinear streams.  Negligibly small against real data.
constexpr double kRidge = 1e-6;

}  // namespace

StreamingOls::StreamingOls(std::size_t dim, StreamingOlsOptions options)
    : dim_(dim), options_(options) {
  GPPM_CHECK(dim_ >= 1, "streaming OLS needs at least one column");
  GPPM_CHECK(options_.window >= 1, "streaming OLS window must be >= 1");
  prior_gram_ = linalg::Matrix(dim_, dim_);
  for (std::size_t i = 0; i < dim_; ++i) prior_gram_(i, i) = kRidge;
  prior_rhs_.assign(dim_, 0.0);
  rhs_ = prior_rhs_;
  factor_ = linalg::cholesky(prior_gram_);
  rebuilds_ = 0;  // the constructor's factorization is not a rebuild
}

void StreamingOls::seed(const linalg::Matrix& x, const linalg::Vector& y) {
  GPPM_CHECK(x.cols() == dim_, "seed width != streaming OLS dimension");
  GPPM_CHECK(x.rows() == y.size(), "seed rows != targets");
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.row_ptr(r);
    for (std::size_t i = 0; i < dim_; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        prior_gram_(i, j) += row[i] * row[j];
      }
      prior_rhs_[i] += y[r] * row[i];
    }
  }
  // Mirror the lower triangle (cholesky reads the full matrix).
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i + 1; j < dim_; ++j) {
      prior_gram_(i, j) = prior_gram_(j, i);
    }
  }
  rebuild();
}

void StreamingOls::observe(const linalg::Vector& x, double y) {
  GPPM_CHECK(x.size() == dim_, "observation width != streaming OLS dimension");
  factor_ = linalg::cholesky_update(factor_, x);
  for (std::size_t i = 0; i < dim_; ++i) rhs_[i] += y * x[i];
  window_.emplace_back(x, y);
  ++observed_;
  if (window_.size() <= options_.window) return;

  const auto& [old_x, old_y] = window_.front();
  for (std::size_t i = 0; i < dim_; ++i) rhs_[i] -= old_y * old_x[i];
  try {
    factor_ = linalg::cholesky_downdate(factor_, old_x);
    window_.pop_front();
  } catch (const Error&) {
    // Rounding broke positive-definiteness: refactorize from the exact
    // prior Gram plus the retained window.
    window_.pop_front();
    rebuild();
  }
  ++evicted_;
}

void StreamingOls::rebuild() {
  linalg::Matrix gram = prior_gram_;
  rhs_ = prior_rhs_;
  for (const auto& [x, y] : window_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      for (std::size_t j = 0; j <= i; ++j) gram(i, j) += x[i] * x[j];
      rhs_[i] += y * x[i];
    }
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i + 1; j < dim_; ++j) gram(i, j) = gram(j, i);
  }
  factor_ = linalg::cholesky(gram);
  ++rebuilds_;
}

linalg::Vector StreamingOls::coefficients() const {
  const linalg::Vector y = linalg::solve_lower_triangular(factor_, rhs_);
  return linalg::solve_lower_transposed(factor_, y);
}

}  // namespace gppm::stats
