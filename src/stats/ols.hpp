// Ordinary least squares with the goodness-of-fit statistics the paper's
// model selection relies on (R^2 and adjusted R^2).
#pragma once

#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace gppm::stats {

/// A fitted linear model y ~ X beta (+ intercept if fit_intercept).
struct OlsFit {
  linalg::Vector coefficients;  ///< one per column of X
  double intercept = 0.0;       ///< 0 if fit_intercept was false
  double r_squared = 0.0;
  double adjusted_r_squared = 0.0;
  double residual_ss = 0.0;
  std::size_t n_samples = 0;
  std::size_t n_predictors = 0;  ///< excluding the intercept
  bool full_rank = true;

  /// Predict for one feature row (size must equal n_predictors).
  double predict(const linalg::Vector& features) const;
};

/// Fit y ~ X by QR least squares.
/// Requires X.rows() == y.size() and X.rows() > X.cols() (+1 if intercept).
/// adjusted R^2 uses the standard (1 - (1-R^2)(n-1)/(n-p-1)) form, the
/// quantity the paper reports in TABLEs V and VI.
OlsFit ols_fit(const linalg::Matrix& x, const linalg::Vector& y,
               bool fit_intercept = true);

/// The total sum of squares R^2 is measured against: about the mean of y
/// with an intercept, about zero without one.
double total_sum_of_squares(const linalg::Vector& y, bool fit_intercept);

/// The OlsFit of a least-squares solution over the design [1 | X] (X alone
/// without an intercept) of n_samples rows, with R^2 measured against
/// tss = total_sum_of_squares(y, fit_intercept).  ols_fit builds its result
/// this way, and so does forward selection for the models it confirms, so
/// the two agree bit for bit.
OlsFit ols_from_solution(const linalg::LstsqResult& solution,
                         std::size_t n_samples, bool fit_intercept,
                         double tss);

}  // namespace gppm::stats
